"""Tests of the benchmark itself: tiny passes through each workload's jobs and
checks, and the self-time arithmetic on hand-built span trees."""

import json

import numpy as np
import pytest

import calib
import gen
import jobs
import run
import spans
from spans import Span

CLI = run.import_program()


def test_self_times_nested_and_sibling_children():
    tree = [
        Span("job", 0.0, 10.0, None, 0),
        Span("a", 1.0, 6.0, 0, 0),
        Span("b", 2.0, 3.0, 1, 0),   # first child of a
        Span("c", 3.5, 5.0, 1, 0),   # sibling of b
        Span("d", 4.0, 4.5, 3, 0),   # nested under c
        Span("e", 7.0, 9.0, 0, 0),   # sibling of a
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 1.0, 1.0, 0.5, 2.0])


def test_self_times_count_overlapping_children_once_and_clip_them():
    tree = [
        Span("p", 0.0, 4.0, None, 0),
        Span("x", 1.0, 3.0, 0, 0),
        Span("y", 2.0, 5.0, 0, 0),   # overlaps x and runs past the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_per_job_means_and_coverage():
    tree = [
        Span("job", 0.0, 10.0, None, 0),
        Span("a", 1.0, 6.0, 0, 0, {"bytes": 100}),
        Span("b", 2.0, 3.0, 1, 0, {"mean_dim": 4}),
        Span("job", 10.0, 14.0, None, 1),
        Span("b", 11.0, 13.0, 3, 1, {"mean_dim": 8}),
    ]
    metrics = spans.layer_metrics(tree)
    assert metrics["b.calls"] == pytest.approx(1.0)
    assert metrics["b.self_s"] == pytest.approx(1.5)
    assert metrics["b.mean_dim"] == pytest.approx(6.0)
    assert metrics["a.bytes"] == pytest.approx(50.0)
    assert metrics["a.share"] == pytest.approx(4.0 / 14.0)
    assert metrics["trace.coverage_frac"] == pytest.approx(7.0 / 14.0)


def _tiny_job(workload, tmp_path, tracer=None):
    x = workload.make_input(7, tiny=True)
    csv, report, score = tmp_path / "in.csv", tmp_path / "r.json", tmp_path / "s.json"
    gen.write_csv(csv, x)
    if tracer is not None:
        tracer.open_job(0)
    try:
        _, codes = jobs.run_job(CLI.main, workload, csv, report, score)
    finally:
        if tracer is not None:
            tracer.close_job()
    return x.shape[0], codes, report, score


@pytest.mark.parametrize("name", sorted(jobs.WORKLOADS))
def test_tiny_pass_through_checks_and_trace(name, tmp_path):
    workload = jobs.WORKLOADS[name]
    tracer = spans.Tracer()
    tracer.install()
    try:
        m, codes, report, score = _tiny_job(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()
    doc, failures = jobs.check_job(workload, codes, report, score, m)
    assert failures == []
    assert jobs.objective_of(doc) > 0.0

    metrics = spans.layer_metrics(tracer.spans)
    layers = {key.rsplit(".", 1)[0] for key in metrics}
    assert "spectral.sym_eigen" in layers
    assert ("sis.best_sis" in layers) == (workload.kind == "sis")
    assert ("subspace.best_fit_subspace" in layers) == (workload.kind != "sis")
    assert 0.9 < metrics["trace.coverage_frac"] <= 1.0
    assert not hasattr(CLI.ingest, "__wrapped__")  # wrappers removed


def test_checks_catch_bad_reports(tmp_path):
    fit = jobs.WORKLOADS["tall-fit"]
    m, codes, report, score = _tiny_job(fit, tmp_path)
    doc = json.loads(report.read_text())
    doc["assignment"] = doc["assignment"][:-1]
    report.write_text(json.dumps(doc))
    _, failures = jobs.check_job(fit, codes, report, score, m)
    assert any("assignment" in f for f in failures)
    _, failures = jobs.check_job(fit, [0, 1], report, score, m)
    assert failures == ["exit codes [0, 1]"]

    sweep = jobs.WORKLOADS["wide-sweep"]
    report.write_text(json.dumps({"rows": [{"l": 1, "n": 3, "epsilon": 1.0},
                                           {"l": 2, "n": 3, "epsilon": 2.0}]}))
    _, failures = jobs.check_job(sweep, [0], report, score, m)
    assert any("epsilon increases" in f for f in failures)


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert run.tail(list(range(19))) is None
    pct, _ = run.tail(list(range(20)))
    assert pct == 50.0
    pct, _ = run.tail(list(range(1000)))
    assert pct == 99.0


def test_calibration_kernel_diagonalises():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    a = b @ b.T
    assert np.allclose(calib.jacobi_eigenvalues(a), np.linalg.eigvalsh(a))
    cal = calib.Calibration()
    cal.run(0.0)
    cal.run(1.0)   # about share * 1 s of kernel runs
    assert cal.reps > 5 and cal.rep_s > 0.0
