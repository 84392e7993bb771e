"""Command-line interface: fit, sweep, generate, score.

Exit codes: 0 on success, 1 on numeric failure, 2 on I/O or configuration
errors.  Reports are deterministic JSON (see dataio).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bundles import Bundle, distance_matrix
from .dataio import (Ragged, format_float, generate, ingest, load_members, to_json,
                     write_dataset_csv, write_json)
from .errors import (
    DimensionMismatch,
    EmptyDataSet,
    IndexOutOfRange,
    InvalidSpec,
    LengthMismatch,
    ParseError,
    StructureMismatch,
    UosfitError,
)
from .sis import ShiftStructure, SISModel, sis_distance_matrix, solve_sis_bundle
from .solver import INIT_STRATEGIES, MAX_ITERS, SolveConfig, solve, sparsity_curve
from .spectral import STOP_TOL
from .sparsity import encode, extract_dictionary
from .subspace import Subspace

SCHEMA_VERSION = 1

_CONFIG_ERRORS = (
    OSError,
    ParseError,
    InvalidSpec,
    StructureMismatch,
    LengthMismatch,
    DimensionMismatch,
    EmptyDataSet,
    IndexOutOfRange,
    json.JSONDecodeError,
    KeyError,
    MemoryError,
)


def _parse_range(text):
    """'3' -> [3]; '1:5' -> [1..5]; '1,3,5' -> [1, 3, 5]."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        if "," in text:
            return [int(part) for part in text.split(",")]
        return [int(text)]
    except ValueError:
        raise InvalidSpec(f"cannot parse range {text!r}; use N, A:B or A,B,C") from None


def _solve_config(args, l, n):
    return SolveConfig(l=l, n=n, restarts=args.restarts, seed=args.seed,
                       init_strategy=args.init)


def _config_echo(args, mode, extra=None):
    echo = {
        "input": args.input,
        "mode": mode,
        "restarts": args.restarts,
        "seed": args.seed,
        "init_strategy": args.init,
        "rel_tol": STOP_TOL,
        "max_iters": MAX_ITERS,
    }
    if mode == "sis":
        echo["signal_len"] = args.signal_len
        echo["shift_step"] = args.shift_step
        echo["input_format"] = args.input_format
    if extra:
        echo.update(extra)
    return echo


def _ingest_numeric(path, complex_pairs=False):
    """``ingest``, refusing a file without data rows or without numeric columns."""
    dataset = ingest(path, complex_pairs=complex_pairs)
    if dataset.m == 0:
        raise EmptyDataSet(f"input file {path} holds no data rows")
    if not dataset.ambient_dim:
        raise ParseError(f"input file {path} holds labels but no numeric columns")
    return dataset


def _load_dataset(args, mode):
    complex_pairs = mode == "sis" and args.input_format == "spectra"
    return _ingest_numeric(args.input, complex_pairs)


def _structure(args):
    if args.signal_len is None or args.shift_step is None:
        raise InvalidSpec("sis mode requires --signal-len and --shift-step")
    return ShiftStructure(args.signal_len, args.shift_step)


def _euclidean_components(bundle):
    return [
        {"dim": sub.dim, "basis": sub.basis.tolist()}
        for sub in bundle
    ]


def _sis_components(models):
    out = []
    for mo in models:
        gens = [
            {"re": g.real.tolist(), "im": g.imag.tolist()}
            for g in mo.generators
        ]
        out.append(
            {
                "length": mo.length,
                "per_freq_rank": mo.per_freq_rank.tolist(),
                "generators": gens,
            }
        )
    return out


def _restart_stats(report):
    # The report's tuples hold Python floats, ints and bools already.
    names = ("per_restart_objectives", "iterations_per_restart", "objective_trace",
             "degenerate_flags")
    return {name: getattr(report, name) for name in names}


def cmd_fit(argv):
    args = _parse_command("fit", argv)
    t0 = time.perf_counter()
    mode = args.mode
    dataset = _load_dataset(args, mode)
    cfg = _solve_config(args, args.l, args.n)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "mode": mode,
        "config": _config_echo(args, mode, {"l": cfg.l, "n": cfg.n, "dedup_tol": 0.0}),
    }
    if mode == "euclidean":
        report = solve(dataset, cfg)
        dictionary = extract_dictionary(report.bundle)
        code = encode(dataset, report.bundle, report.partition, dictionary)
        doc["ambient_dim"] = dataset.ambient_dim
        doc["components"] = _euclidean_components(report.bundle)
        doc["dictionary"] = {
            "atoms": dictionary.atoms.tolist(),
            "atom_to_subspace": [list(g) for g in dictionary.atom_to_subspace],
            "raw_atom_count": len(dictionary),
        }
        # Per point: the atoms with a nonzero weight, and those weights.  The
        # nonzeros come in point order, support_sizes of them per point.
        points, atoms = np.nonzero(code.columns.T)
        sizes = list(code.support_sizes)
        doc["codes"] = {
            "support": Ragged(atoms, sizes),
            "coefficients": Ragged(code.columns[atoms, points], sizes),
            "support_sizes": sizes,
        }
    else:
        structure = _structure(args)
        report = solve_sis_bundle(dataset, structure, cfg)
        doc["components"] = _sis_components(report.bundle)

    doc["objective"] = report.objective
    doc["converged"] = report.converged
    doc["assignment"] = report.partition.assignment
    doc["residuals_sq"] = report.residuals_sq
    doc["labels"] = list(dataset.labels) if dataset.labels is not None else None
    doc["restarts"] = _restart_stats(report)
    if not args.no_timings:
        doc["timings"] = {"elapsed_s": time.perf_counter() - t0}

    text = write_json(args.report, doc)
    if args.verbose:
        sys.stdout.write(text)
    else:
        print(f"objective {format_float(report.objective)} -> {args.report}")
    return 0


def cmd_sweep(argv):
    args = _parse_command("sweep", argv)
    t0 = time.perf_counter()
    dataset = _load_dataset(args, "euclidean")
    l_values = _parse_range(args.l)
    n_values = _parse_range(args.n)
    base = _solve_config(args, l_values[0], n_values[0])
    rows = sparsity_curve(dataset, l_values, n_values, base)

    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "mode": "sweep",
        "config": _config_echo(args, "euclidean", {"l": args.l, "n": args.n}),
        "rows": [{"l": r.l, "n": r.n, "epsilon": r.epsilon} for r in rows],
    }
    if not args.no_timings:
        doc["timings"] = {"elapsed_s": time.perf_counter() - t0}
    write_json(args.report, doc)

    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("l,n,epsilon\n")
            for r in rows:
                fh.write(f"{r.l},{r.n},{format_float(r.epsilon)}\n")
    print(f"{len(rows)} sweep rows -> {args.report}")
    return 0


def cmd_generate(argv):
    args = _parse_command("generate", argv)
    dataset, _truth = generate(
        l=args.l,
        n=args.n,
        ambient_dim=args.ambient_dim,
        points_per_subspace=args.points_per_subspace,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    write_dataset_csv(args.out, dataset, with_labels=not args.no_labels)
    print(f"{dataset.m} points in R^{dataset.ambient_dim} -> {args.out}")
    return 0


def _rebuild_euclidean(doc):
    ambient = doc["ambient_dim"]
    if type(ambient) is not int:
        raise ValueError(f"ambient_dim {ambient!r} is not an integer")
    subs = []
    for comp in doc["components"]:
        dim = comp["dim"]
        if type(dim) is not int or not 0 <= dim <= ambient:
            raise ValueError(f"dim {dim!r} is not an integer in [0, {ambient}]")
        basis = np.array(comp["basis"], dtype=np.float64).reshape(dim, ambient)
        subs.append(Subspace(ambient, basis))
    return Bundle(tuple(subs))


def _rebuild_sis(doc):
    cfgd = doc["config"]
    sizes = (cfgd["signal_len"], cfgd["shift_step"])
    if any(type(v) is not int for v in sizes):
        raise ValueError(f"signal_len and shift_step {sizes!r} are not integers")
    structure = ShiftStructure(*sizes)
    if not doc["components"]:
        raise ValueError("the report has no components")
    shape = (structure.signal_len,)
    models = []
    for comp in doc["components"]:
        length = comp["length"]
        if type(length) is not int:
            raise ValueError(f"length {length!r} is not an integer")
        if len(comp["generators"]) != length:
            raise ValueError(f"{len(comp['generators'])} generators for length {length}")
        gens = np.zeros((length, structure.signal_len), dtype=np.complex128)
        for i, g in enumerate(comp["generators"]):
            # reshape, not broadcast: a generator of the wrong length is an error
            gens[i] = (np.array(g["re"], dtype=np.float64).reshape(shape)
                       + 1j * np.array(g["im"], dtype=np.float64).reshape(shape))
        ranks, cap = comp["per_freq_rank"], min(length, structure.num_aliases)
        if len(ranks) != structure.num_freqs or not all(type(r) is int and 0 <= r <= cap
                                                        for r in ranks):
            raise ValueError(f"per_freq_rank needs {structure.num_freqs} integers in [0, {cap}]")
        models.append(SISModel(structure=structure, generators=gens,
                               per_freq_rank=np.array(ranks, dtype=np.intp)))
    return structure, tuple(models)


# The report members score and its _rebuild_* helpers read.  The others (the
# codes, assignment and residuals among them) are parsed as JSON only, their
# numbers never converted.
_SCORED_MEMBERS = frozenset({"mode", "config", "ambient_dim", "components", "objective"})


def cmd_score(argv):
    args = _parse_command("score", argv)
    # Everything read from the report is checked here: a document that is
    # not UTF-8 JSON of the fit schema is a ParseError, never a traceback.
    # A report of another mode, such as a sweep's, is not malformed.
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            doc = load_members(fh, _SCORED_MEMBERS)
        mode = doc["mode"]
        complex_pairs = False
        stored = None
        if mode == "euclidean":
            bundle = _rebuild_euclidean(doc)
        elif mode == "sis":
            structure, models = _rebuild_sis(doc)
            complex_pairs = doc["config"].get("input_format") == "spectra"
        if mode in ("euclidean", "sis"):
            stored = float(doc["objective"])
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        raise ParseError(f"malformed report {args.report}: {type(exc).__name__}: {exc}") from None
    if stored is None:
        raise InvalidSpec(f"cannot score a report of mode {mode!r}")

    dataset = _ingest_numeric(args.input, complex_pairs)
    if mode == "euclidean":
        dmat = distance_matrix(dataset, bundle)
    else:
        dmat = sis_distance_matrix(dataset, models, structure)
    objective = float(dmat.min(axis=1).sum())

    out = {
        "objective": objective,
        "stored_objective": stored,
    }
    text = write_json(args.out, out) if args.out else to_json(out)
    sys.stdout.write(text)
    return 0


def _add_common_solver_flags(p):
    p.add_argument("--restarts", type=int, default=SolveConfig.restarts)
    p.add_argument("--seed", type=int, default=SolveConfig.seed)
    p.add_argument("--init", default=SolveConfig.init_strategy, choices=INIT_STRATEGIES)
    p.add_argument("--no-timings", action="store_true",
                   help="omit the timings section for byte-identical reports")


def build_parser():
    """The ``uosfit`` parser, and its command parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="uosfit",
        description="Fit optimal unions of subspaces (or shift-invariant models) to data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a bundle and write a JSON report")
    p_fit.add_argument("--input", required=True, help="CSV, one vector per row")
    p_fit.add_argument("--mode", default="euclidean", choices=["euclidean", "sis"])
    p_fit.add_argument("--l", type=int, required=True, help="number of subspaces")
    p_fit.add_argument("--n", type=int, required=True, help="max subspace dimension")
    p_fit.add_argument("--signal-len", type=int, default=None, help="M (sis mode)")
    p_fit.add_argument("--shift-step", type=int, default=None, help="L (sis mode)")
    p_fit.add_argument("--input-format", default="rows", choices=["rows", "spectra"],
                       help="sis input: real time-domain rows, or interleaved re,im spectra")
    p_fit.add_argument("--report", required=True)
    p_fit.add_argument("--verbose", action="store_true")
    _add_common_solver_flags(p_fit)

    p_sweep = sub.add_parser("sweep", help="sweep (l, n) and tabulate epsilon")
    p_sweep.add_argument("--input", required=True)
    p_sweep.add_argument("--l", required=True, help="range: N, A:B or A,B,C")
    p_sweep.add_argument("--n", required=True, help="range: N, A:B or A,B,C")
    p_sweep.add_argument("--report", required=True)
    p_sweep.add_argument("--csv", default=None, help="plot data: columns l,n,epsilon")
    _add_common_solver_flags(p_sweep)

    p_gen = sub.add_parser("generate", help="synthesize union-of-subspaces data")
    p_gen.add_argument("--l", type=int, required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--ambient-dim", type=int, required=True)
    p_gen.add_argument("--points-per-subspace", type=int, required=True)
    p_gen.add_argument("--noise-sigma", type=float, default=0.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--no-labels", action="store_true")
    p_gen.add_argument("--out", required=True)

    p_score = sub.add_parser("score", help="re-evaluate a stored model on data")
    p_score.add_argument("--input", required=True)
    p_score.add_argument("--report", required=True, help="report JSON holding the model")
    p_score.add_argument("--out", default=None)
    return parser, sub.choices


# Built once per process: building the tree takes about 2 ms, a sizeable
# share of a small job.
_PARSER, _COMMANDS = build_parser()


def _parse_command(command, argv):
    """The full parser's namespace for ``command`` followed by ``argv``, from
    the command's own parser: one argparse pass instead of two, about half
    the parse time."""
    args = _COMMANDS[command].parse_args(argv)
    args.command = command
    return args


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        # Help, the version and usage errors: the full parser prints them and
        # exits, since every line it accepts opens with a command.
        _PARSER.parse_args(argv)
    # Resolved per call, so a rebound cmd_* (a tracing wrapper, say) is used.
    # Each command parses the words after its name, so a wrapper's span holds
    # the parse.
    handler = globals()[f"cmd_{argv[0]}"]
    try:
        return handler(argv[1:])
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UosfitError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
