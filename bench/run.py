"""Benchmark of the uosfit CLI: end-to-end metrics per job, per-layer metrics
from a separate traced run.

    python3 bench/run.py --workload tall-fit --seed 1 --seconds 36 --trace 0

One process drives the public CLI in-process, one job after another (a closed
loop with one client and no think time).  Inputs come from a fixed corpus per
workload whose reference objectives are stored in ``references.json``; the
seed fixes the order in which a run visits them.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones); the lines before it print every metric with its unit and sample
count.  ``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
HIT_TOL = 1e-9

# The program's own code runs in a fresh interpreter for set-up time.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import uosfit.cli; "
    "sys.exit(uosfit.cli.main(sys.argv[2:]))"
)


def environment():
    """nproc, Python, numpy and the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if there is none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail(values):
    """(percentile, value) for the highest percentile of TAIL_PERCENTILES with
    at least ten samples beyond it, or None when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            return pct, float(np.percentile(values, pct))
    return None


def import_program():
    """Put the checkout's ``src`` first on the path and import the CLI."""
    if not (SRC / "uosfit" / "cli.py").is_file():
        raise FileNotFoundError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    return importlib.import_module("uosfit.cli")


def measure_setup(workload, work):
    """Median wall time of fresh interpreters that import the CLI and run
    one call on a tiny input."""
    csv = work / "setup.csv"
    gen.write_csv(csv, workload.make_input(0, tiny=True))
    argv = workload.commands(csv, work / "setup.json", work / "setup-score.json")[0]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), *argv],
                       stdout=subprocess.DEVNULL, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


class Run:
    """One measured run: jobs over the seed-ordered corpus, checked one by one."""

    def __init__(self, cli, workload, seed, work):
        self.cli = cli
        self.workload = workload
        self.work = work
        refs = jobs.load_references()["workloads"][workload.name]
        order = np.random.default_rng(seed).permutation(len(refs))
        self.corpus = []
        for k in order:
            entry = refs[int(k)]
            x = workload.make_input(entry["input_seed"])
            csv = work / f"input-{entry['input_seed']}.csv"
            gen.write_csv(csv, x)
            self.corpus.append((csv, x.shape[0], entry["objective"]))
        self.attempted = 0
        self.failures = []
        self.outcomes = []  # (objective / reference, converged, restarts) per job
        self.first_report = None
        self.walls = {}

    def job(self, index, tracer=None):
        """Run and check the index-th job; returns its wall time, or None if
        it failed.  With a tracer, spans are recorded while the CLI runs but
        not while the outputs are checked."""
        csv, m, ref = self.corpus[index % len(self.corpus)]
        report = self.work / "report.json"
        score_out = self.work / "score.json"
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.open_job(index)
            try:
                wall, codes = jobs.run_job(self.cli.main, self.workload, csv, report, score_out)
            finally:
                if tracer is not None:
                    tracer.close_job()
            doc, failures = jobs.check_job(self.workload, codes, report, score_out, m)
            if index % len(self.corpus) == 0 and doc is not None:
                body = report.read_bytes()
                if self.first_report is None:
                    self.first_report = body
                elif body != self.first_report:
                    failures.append("rerun of the first input gave a different report")
        except Exception as exc:  # a job that raises is a failed job, not a crash
            wall, doc, failures = None, None, [f"{type(exc).__name__}: {exc}"]
        finally:
            # Garbage from one job must not raise the next job's peak memory.
            gc.collect()
        if failures:
            self.failures.append((index, failures))
            return None
        self.outcomes.append((jobs.objective_of(doc) / ref, doc.get("converged"),
                              doc.get("restarts")))
        return wall

    def loop(self, seconds, step):
        """Call ``step(index)`` over whole passes of the corpus, so every run
        measures the same inputs, until the next pass would likely end past
        ``seconds`` (judged by the median pass so far); at least one pass.
        Returns the number of passes."""
        passes = []
        start = time.perf_counter()
        index = 0
        while not passes or time.perf_counter() - start + statistics.median(passes) <= seconds:
            t0 = time.perf_counter()
            for _ in self.corpus:
                step(index)
                index += 1
            passes.append(time.perf_counter() - t0)
        return len(passes)


def result_metrics(trace):
    """Name -> unit of the metrics the result line carries, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _row(name, value, unit, samples, note=""):
    shown = "omitted" if value is None else f"{value:.6g}"
    return f"  {name:<36} {shown:>14} {unit:<6} n={samples:<5} {note}".rstrip()


def end_to_end(run, seconds, work):
    setup_s, setup_n = measure_setup(run.workload, work)
    times = []
    cal = calib.Calibration()

    def step(index):
        cal.run(times[-1] if times else 0.0)
        wall = run.job(index)
        if wall is not None:
            times.append(wall)

    if run.loop(seconds, step) == 1:
        run.job(len(run.corpus))  # untimed rerun of the first input
    run.walls = {"jobs": times, "calibration_rep_s": cal.rep_s}
    n = len(times)
    tail_at = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = {
        "job_rel": (statistics.fmean(times) / cal.rep_s if times else None, "1", n, ""),
        "job_s": (statistics.median(times) if times else None, "s", n, ""),
        "job_tail_s": (tail_at[1], "s", n, f"p{tail_at[0]:g}") if tail_at
        else (None, "s", n, "needs at least 20 jobs"),
        "setup_s": (setup_s, "s", setup_n, ""),
        "peak_rss_mb": (rss_mb, "MB", 1, ""),
        "objective_ratio": (
            statistics.fmean(ratio for ratio, _, _ in run.outcomes)
            if run.outcomes else None, "1", len(run.outcomes), ""),
    }
    if run.workload.kind != "sweep":
        certified = sum(1 for _, converged, _ in run.outcomes if converged)
        rows["certified_frac"] = (certified / run.attempted, "1", run.attempted, "")
    rows["failed_frac"] = (len(run.failures) / run.attempted, "1", run.attempted, "")
    return rows


def per_layer(run, seconds):
    tracer = spans.Tracer()
    tracer.install()
    plain, traced = [], []
    try:
        def step(index):
            # Alternate which side goes first so neither always follows a check.
            sides = [("plain", plain), ("traced", traced)]
            for side, out in sides if index % 2 == 0 else sides[::-1]:
                wall = run.job(index, tracer if side == "traced" else None)
                if wall is not None:
                    out.append(wall)

        run.loop(seconds, step)
    finally:
        tracer.uninstall()

    run.walls = {"plain": plain, "traced": traced}
    metrics = spans.layer_metrics(tracer.spans)
    if plain and traced:
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    solver_stats(run, metrics)
    rows = {name: (value, _unit(name), len(traced), "") for name, value in sorted(metrics.items())}
    return rows, tracer.spans


def solver_stats(run, metrics):
    """Restart counters read from fit reports."""
    fits = [restarts for _, _, restarts in run.outcomes if restarts]
    if not fits:
        return
    restarts = iters = hits = 0
    for stats in fits:
        objs = stats["per_restart_objectives"]
        best = min(objs)
        restarts += len(objs)
        iters += sum(stats["iterations_per_restart"])
        hits += sum(1 for v in objs if abs(v - best) <= HIT_TOL * abs(best))
    metrics["solver.restarts"] = restarts / len(fits)
    metrics["solver.iterations"] = iters / len(fits)
    metrics["solver.restart_hit_frac"] = hits / restarts


def _unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat == "self_s":
        return "s"
    if stat == "bytes":
        return "bytes"
    if stat in ("calls", "mean_dim", "dim3_sum", "restarts", "iterations"):
        return "count"
    return "1"


def run_all(args):
    code = 0
    for name in jobs.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*jobs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    os.environ.pop("UOSFIT_THREADS", None)
    try:
        cli = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = jobs.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    trace_spans = None
    try:
        run = Run(cli, workload, args.seed, work)
        if args.trace:
            rows, trace_spans = per_layer(run, args.seconds)
        else:
            rows = end_to_end(run, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    listed = result_metrics(args.trace)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": rows.get(name, (None,))[0], "unit": unit}
                    for name, unit in listed.items()},
    }
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                   "environment": env, "failures": run.failures, "walls": run.walls,
                   "metrics": {k: {"value": v, "unit": u, "samples": n, "note": note}
                               for k, (v, u, n, note) in rows.items()},
                   "result": result}, fh, indent=1)
    if trace_spans is not None:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in trace_spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    print(f"# {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for index, failures in run.failures:
        print(f"# job {index} failed: {'; '.join(failures)}")
    for name, (value, unit, samples, note) in rows.items():
        print(_row(name, value, unit, samples, note))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
