"""Workload definitions, job execution through the public CLI, output checks.

A job is one closed-loop request: the CLI commands of a workload run back to
back in this process through ``uosfit.cli.main(argv)``, from the call to the
report on disk.  Every job's outputs are checked afterwards, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gen

SIGMA = 0.05
REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``size`` holds the generator parameters of a measured job and ``tiny``
    those of the small input used for the set-up call and the tests.
    ``argv`` is the CLI command that fits (or sweeps) an input; tall-fit
    also scores the model it wrote.
    """

    name: str
    kind: str
    size: dict
    tiny: dict
    argv: tuple
    score: bool = False

    def make_input(self, seed, tiny=False):
        size = self.tiny if tiny else self.size
        if self.kind == "sis":
            return gen.planted_sis(seed, sigma=SIGMA, **size)
        return gen.planted_union(seed, sigma=SIGMA, **size)

    def commands(self, csv, report, score_out):
        cmds = [[*self.argv, "--input", str(csv), "--no-timings", "--report", str(report)]]
        if self.score:
            cmds.append(["score", "--input", str(csv), "--report", str(report),
                         "--out", str(score_out)])
        return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall-fit",
            kind="fit",
            size=dict(l=4, n=2, dim=6, points=12000),
            tiny=dict(l=4, n=2, dim=6, points=80),
            argv=("fit", "--l", "4", "--n", "2", "--restarts", "4"),
            score=True,
        ),
        Workload(
            name="wide-sweep",
            kind="sweep",
            size=dict(l=4, n=3, dim=16, points=64),
            tiny=dict(l=4, n=3, dim=6, points=16),
            argv=("sweep", "--l", "1:4", "--n", "3", "--restarts", "4"),
        ),
        Workload(
            name="sis-fit",
            kind="sis",
            size=dict(classes=2, signals=32, signal_len=64, shift_step=4),
            tiny=dict(classes=2, signals=6, signal_len=64, shift_step=4),
            argv=("fit", "--mode", "sis", "--signal-len", "64", "--shift-step", "4",
                  "--l", "2", "--n", "1", "--restarts", "4"),
        ),
    )
}


def load_references():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def run_job(cli_main, workload, csv, report, score_out):
    """Run the workload's CLI commands once; returns (wall seconds, exit codes).

    The commands' standard output is captured so it cannot mix with the
    benchmark's own output.
    """
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        codes = [cli_main(argv) for argv in workload.commands(csv, report, score_out)]
    return time.perf_counter() - t0, codes


def objective_of(doc):
    """The number objective_ratio compares: the fit objective, or the sum of
    the sweep's epsilons over its rows."""
    if "rows" in doc:
        return float(sum(row["epsilon"] for row in doc["rows"]))
    return float(doc["objective"])


def _non_increasing(values):
    return all(b <= a for a, b in zip(values, values[1:]))


def _parseval_failures(doc):
    """Every eigenvalue of each model's generator Gramian lies within 1e-8
    of 0 or 1."""
    from uosfit.sis import SISModel, ShiftStructure, generator_gramian

    cfg = doc["config"]
    structure = ShiftStructure(int(cfg["signal_len"]), int(cfg["shift_step"]))
    bad = []
    for k, comp in enumerate(doc["components"]):
        gens = [np.array(g["re"]) + 1j * np.array(g["im"]) for g in comp["generators"]]
        if not gens:
            continue
        model = SISModel(structure, np.array(gens), np.array(comp["per_freq_rank"], dtype=np.intp))
        lam = generator_gramian(model).eigenvalues
        worst = float(np.max(np.minimum(np.abs(lam), np.abs(lam - 1.0))))
        if worst > 1e-8:
            bad.append(f"component {k}: generator Gramian eigenvalue {worst:.3e} from 0 and 1")
    return bad


def check_job(workload, codes, report, score_out, m):
    """Output checks of one job; returns (report document or None, failures)."""
    if any(code != 0 for code in codes):
        return None, [f"exit codes {codes}"]
    try:
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return None, [f"report does not parse: {exc}"]

    failures = []
    if workload.kind == "sweep":
        for n in sorted({row["n"] for row in doc["rows"]}):
            eps = [row["epsilon"] for row in sorted(doc["rows"], key=lambda r: r["l"])
                   if row["n"] == n]
            if not _non_increasing(eps):
                failures.append(f"epsilon increases along l at n={n}: {eps}")
        return doc, failures

    if len(doc["assignment"]) != m:
        failures.append(f"assignment has {len(doc['assignment'])} entries, expected {m}")
    trace = doc["restarts"]["objective_trace"]
    if not _non_increasing(trace[:-1]):
        failures.append("objective_trace increases before its final entry")
    if workload.score:
        with open(score_out, encoding="utf-8") as fh:
            scored = json.load(fh)
        stored = float(doc["objective"])
        if abs(scored["objective"] - stored) > 1e-9 * abs(stored):
            failures.append(f"score objective {scored['objective']!r} vs stored {stored!r}")
    if workload.kind == "sis":
        failures.extend(_parseval_failures(doc))
    return doc, failures
