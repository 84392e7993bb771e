"""Scale equivariance: for c*X every error is c**2 times that for X and every
decision (rank, cut, stop, assignment) is the same.  Scaling by 2**k is exact
in floating point, so there the objectives must be exactly 4**k times the
unscaled ones; other c agree to round-off."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uosfit import (
    DataSet,
    ShiftStructure,
    SolveConfig,
    best_fit_subspace,
    best_sis,
    generate,
    gramian,
    solve,
    solve_sis_bundle,
    sparsity_curve,
)
from uosfit.cli import main
from uosfit.dataio import write_dataset_csv

from helpers import rel_err, sis_signals_from_generator

POWERS = st.integers(-480, 480)
SEEDS = st.integers(0, 2**32 - 1)


def _same_up_to_4k(base, scaled, k):
    assert scaled.objective == base.objective * 4.0**k
    for name in ("per_restart_objectives", "objective_trace", "residuals_sq"):
        assert getattr(scaled, name) == tuple(v * 4.0**k for v in getattr(base, name))
    assert scaled.iterations_per_restart == base.iterations_per_restart
    assert np.array_equal(scaled.partition.assignment, base.partition.assignment)
    assert scaled.degenerate_flags == base.degenerate_flags
    assert scaled.converged == base.converged


# The example is the one input above the threshold of the tall-search
# screen (6000 points at l = 2): the rule and the choice of the restart that
# finishes read only sizes and errors of the prescaled data.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=POWERS, seed=SEEDS, m=st.integers(8, 30), dim=st.integers(2, 5),
       l=st.integers(2, 3), n=st.integers(0, 3),
       init=st.sampled_from(["random_partition", "farthest_point"]))
@example(k=-301, seed=29, m=6000, dim=3, l=2, n=1, init="farthest_point")
def test_solve_is_exact_under_powers_of_two(k, seed, m, dim, l, n, init):
    x = np.random.default_rng(seed).standard_normal((m, dim))
    cfg = SolveConfig(l=l, n=min(n, dim - 1), restarts=3, seed=seed % 1000, init_strategy=init)
    _same_up_to_4k(solve(DataSet(x), cfg), solve(DataSet(x * 2.0**k), cfg), k)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=POWERS, seed=SEEDS, m=st.integers(2, 10), step=st.sampled_from([1, 2, 4]),
       l=st.integers(1, 2), n=st.integers(0, 2), complex_=st.booleans())
def test_sis_solve_is_exact_under_powers_of_two(k, seed, m, step, l, n, complex_):
    # complex rows stand for spectra input (``--input-format spectra``)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 8))
    if complex_:
        x = x + 1j * rng.standard_normal((m, 8))
    structure = ShiftStructure(8, step)
    cfg = SolveConfig(l=l, n=n, restarts=3, seed=seed % 1000)
    base = solve_sis_bundle(DataSet(x), structure, cfg)
    scaled = solve_sis_bundle(DataSet(x * 2.0**k), structure, cfg)
    _same_up_to_4k(base, scaled, k)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(k=POWERS, seed=SEEDS, m=st.integers(3, 16), dim=st.integers(2, 5))
def test_sweep_is_exact_under_powers_of_two(k, seed, m, dim):
    x = np.random.default_rng(seed).standard_normal((m, dim))
    cfg = SolveConfig(l=1, n=1, restarts=2, seed=seed % 1000)
    base = sparsity_curve(DataSet(x), [1, 2, 3], [0, 1], cfg)
    scaled = sparsity_curve(DataSet(x * 2.0**k), [1, 2, 3], [0, 1], cfg)
    assert [(r.l, r.n) for r in scaled] == [(r.l, r.n) for r in base]
    assert [r.epsilon for r in scaled] == [r.epsilon * 4.0**k for r in base]


@pytest.mark.parametrize("c", [1e-4, 1e-6, 1e-8, 1e8, 1e150, 1e153])
def test_objective_per_c_squared_is_flat(c):
    # 60 Gaussian points in R^4, l=3, n=1, 8 restarts.  An absolute stop
    # tolerance once ended every chain after one step at c = 1e-8 (and cut
    # chains short at 1e-6) while still reporting convergence.  At 1e153 the
    # data energy overflows although every norm, gamma and Gram entry is
    # finite, so the energy-relative tolerance must not be inf.
    x = np.random.default_rng(0).standard_normal((60, 4))
    cfg = SolveConfig(l=3, n=1, restarts=8, seed=0)
    base = solve(DataSet(x), cfg)
    scaled = solve(DataSet(c * x), cfg)
    assert rel_err(scaled.objective / c**2, base.objective) <= 1e-12
    assert scaled.converged
    assert np.array_equal(scaled.partition.assignment, base.partition.assignment)
    assert scaled.iterations_per_restart == base.iterations_per_restart


def _planted_lines():
    # 60 points on 3 lines through the origin in R^4, noise 1e-6
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((3, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    x = np.vstack([np.outer(rng.standard_normal(20), d) for d in dirs])
    return x + 1e-6 * rng.standard_normal(x.shape)


def _same_partition(a, b):
    """Equal up to a relabelling of the cells."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@pytest.mark.parametrize("c", [1e154, 1e-160])
def test_search_runs_at_the_ends_of_the_float_range(c):
    # Unscaled, x.T @ x overflows at 1e154 (NonFinite) and the squared
    # norms are subnormal at 1e-160 (strict descent broke); the search
    # divides the data by a power of two first.  At 1e-160 the objective
    # itself underflows, so only the decisions are compared there.
    x = _planted_lines()
    cfg = SolveConfig(l=3, n=1, restarts=8, seed=0)
    base = solve(DataSet(x), cfg)
    scaled = solve(DataSet(c * x), cfg)
    assert scaled.converged
    assert scaled.iterations_per_restart == base.iterations_per_restart
    assert _same_partition(scaled.partition.assignment, base.partition.assignment)
    if c > 1.0:
        assert abs(scaled.objective / c**2 - base.objective) <= 1e-12 * float(np.sum(x * x))


def test_search_is_exact_under_a_power_of_two_past_lapacks_safe_range():
    # LAPACK rescales a matrix whose norm is above about 1e153 by a factor
    # that is not a power of two; the pre-scaled search never hands it one.
    x = _planted_lines()
    cfg = SolveConfig(l=3, n=1, restarts=8, seed=0)
    _same_up_to_4k(solve(DataSet(x), cfg), solve(DataSet(x * 2.0**500), cfg), 500)


@pytest.mark.parametrize("c", [1.0, 1e6, 1e-6])
def test_rank_deficient_fit_spectra_have_no_negatives(c):
    # rank-3 data in R^8: LAPACK returns round-off negatives scaled with the
    # data, and every fit spectrum clamps them at zero
    rng = np.random.default_rng(0)
    x = c * (rng.standard_normal((20, 3)) @ rng.standard_normal((3, 8)))
    data = DataSet(x)
    for spectrum in (best_fit_subspace(data, 2).spectrum,
                     best_sis(data, ShiftStructure(8, 8), 2).spectrum,
                     best_sis(data, ShiftStructure(8, 2), 2).spectrum,
                     gramian(data, ShiftStructure(8, 4)).eigenvalues):
        assert spectrum.min() == 0.0


# Planted inputs for score's scale property, with their fit commands: three
# noisy unions of planes in R^5, and three noisy sets of length-16 signals
# from two single-generator classes under shift step 4.
EUCLIDEAN_FIT = ("--l", "3", "--n", "2")
SIS_SCORE_FIT = ("--mode", "sis", "--signal-len", "16", "--shift-step", "4",
                 "--l", "2", "--n", "1")
SCORE_INPUTS = [("euclidean", seed) for seed in (31, 32, 33)] + [
    ("sis", seed) for seed in (41, 42, 43)]


def _planted_rows(kind, seed):
    if kind == "euclidean":
        data, _ = generate(l=3, n=2, ambient_dim=5, points_per_subspace=10,
                           noise_sigma=0.05, seed=seed)
        return data.vectors
    rng = np.random.default_rng(seed)
    structure = ShiftStructure(16, 4)
    x = np.vstack([sis_signals_from_generator(rng, gen, structure, 6)
                   for gen in rng.standard_normal((2, 16))])
    return x + 0.05 * rng.standard_normal(x.shape)


def _score(csv, report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["score", "--input", str(csv), "--report", str(report)]) == 0
    return json.loads(out.getvalue())["objective"]


@pytest.fixture(scope="module")
def scored_inputs(tmp_path_factory):
    """Per planted input: its rows, its directory (holding the report of a
    fit to the unscaled rows) and score's objective of the unscaled rows."""
    cases = []
    for kind, seed in SCORE_INPUTS:
        folder = tmp_path_factory.mktemp(f"{kind}-{seed}")
        x = _planted_rows(kind, seed)
        csv, report = folder / "in.csv", folder / "rep.json"
        write_dataset_csv(csv, DataSet(x), with_labels=False)
        fit = EUCLIDEAN_FIT if kind == "euclidean" else SIS_SCORE_FIT
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", "--input", str(csv), *fit, "--restarts", "4", "--seed", "0",
                         "--report", str(report), "--no-timings"]) == 0
        cases.append((x, folder, _score(csv, report)))
    return cases


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.integers(0, len(SCORE_INPUTS) - 1), k=POWERS)
def test_score_is_exact_under_powers_of_two(scored_inputs, case, k):
    # Past |k| = 480 the objective of a larger input can leave the float
    # range, and score then exits 1 rather than write inf (README's scale
    # paragraph).
    x, folder, base = scored_inputs[case]
    scaled = folder / "scaled.csv"
    write_dataset_csv(scaled, DataSet(np.ldexp(x, k)), with_labels=False)
    assert _score(scaled, folder / "rep.json") == np.ldexp(base, 2 * k)
