"""Spans recorded around the program's layer boundaries, and self times.

The tracer wraps public functions at the names their callers bind (for
example ``uosfit.sis.sym_eigen``), so nothing in the program changes.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, start, end, parent, job, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.attrs = attrs

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "attrs": self.attrs}


def _sym_eigen_attrs(args, _result):
    dim = int(args[0].shape[0])
    return {"mean_dim": dim, "dim3_sum": dim**3}


def _best_fit_attrs(args, _result):
    data = args[0]
    return {"gram_route_frac": int(data.m <= data.ambient_dim)}


def _ingest_attrs(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def _write_json_attrs(_args, result):
    return {"bytes": len(result)}


# Attributes reported as a mean per call; every other one as a mean per job.
PER_CALL = ("mean_dim", "gram_route_frac")

# (layer name, [(module or class, attribute), ...] bindings to wrap, attribute recorder)
LAYERS = (
    ("spectral.sym_eigen", [("uosfit.subspace", "sym_eigen"), ("uosfit.sis", "sym_eigen")],
     _sym_eigen_attrs),
    ("subspace.best_fit_subspace", [("uosfit.bundles", "best_fit_subspace")], _best_fit_attrs),
    ("subspace.DataSet.subset", [("uosfit.subspace.DataSet", "subset")], None),
    ("bundles.fit_partition", [("uosfit.solver", "fit_partition")], None),
    ("bundles.distance_matrix", [("uosfit.solver", "distance_matrix"),
                                 ("uosfit.cli", "distance_matrix"),
                                 ("uosfit.bundles", "distance_matrix")], None),
    ("solver.solve", [("uosfit.cli", "solve")], None),
    ("solver.sparsity_curve", [("uosfit.cli", "sparsity_curve")], None),
    ("sis.solve_sis_bundle", [("uosfit.cli", "solve_sis_bundle")], None),
    ("sis.best_sis", [("uosfit.sis", "best_sis")], None),
    ("sis.gramian", [("uosfit.sis", "gramian")], None),
    ("sis.sis_distance_matrix", [("uosfit.cli", "sis_distance_matrix")], None),
    ("sparsity.extract_dictionary", [("uosfit.cli", "extract_dictionary")], None),
    ("sparsity.encode", [("uosfit.cli", "encode")], None),
    ("dataio.ingest", [("uosfit.cli", "ingest")], _ingest_attrs),
    ("dataio.write_json", [("uosfit.cli", "write_json")], _write_json_attrs),
    ("cli.cmd_fit", [("uosfit.cli", "cmd_fit")], None),
    ("cli.cmd_sweep", [("uosfit.cli", "cmd_sweep")], None),
    ("cli.cmd_score", [("uosfit.cli", "cmd_score")], None),
)

JOB = "job"


class Tracer:
    """Records spans while a job is open; outside a job the wrappers only
    call through."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = Span(name, time.perf_counter(), None, self._stack[-1], self.job)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, result)
            return result

        return traced

    def install(self):
        """Wrap every binding in LAYERS."""
        for name, bindings, attrs in LAYERS:
            for owner_name, attr in bindings:
                module, _, member = owner_name.rpartition(".")
                owner = getattr(importlib.import_module(module), member)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, attrs))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def open_job(self, job_id):
        self.job = job_id
        self.spans.append(Span(JOB, time.perf_counter(), None, None, job_id))
        self._stack = [len(self.spans) - 1]

    def close_job(self):
        self.spans[self._stack[0]].end = time.perf_counter()
        self._stack = []
        self.job = None


def self_times(spans):
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans):
    """Per-layer metrics over the traced jobs, keyed ``<layer>.<stat>``.

    ``calls``, ``self_s`` and per-job attributes are means per job, PER_CALL
    attributes are means per call, and ``share`` is the layer's self time
    over the jobs' wall time.
    """
    selfs = self_times(spans)
    jobs = [s for s in spans if s.name == JOB]
    num_jobs = len(jobs)
    total_wall = sum(s.end - s.start for s in jobs)
    sums = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, selfs):
        if span.name == JOB:
            continue
        acc = sums[span.name]
        acc["calls"] += 1
        acc["self_s"] += own
        for key, value in (span.attrs or {}).items():
            acc[key] += value
    metrics = {}
    for name, acc in sums.items():
        for key, value in acc.items():
            per = acc["calls"] if key in PER_CALL else num_jobs
            metrics[f"{name}.{key}"] = value / per
        metrics[f"{name}.share"] = acc["self_s"] / total_wall
    covered = sum(acc["self_s"] for acc in sums.values())
    metrics["trace.coverage_frac"] = covered / total_wall
    return metrics
