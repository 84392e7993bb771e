"""Scale equivariance: for c*X every error is c**2 times that for X and every
decision (rank, cut, stop, assignment) is the same.  Scaling by 2**k is exact
in floating point, so there the objectives must be exactly 4**k times the
unscaled ones; other c agree to round-off."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (
    DataSet,
    ShiftStructure,
    SolveConfig,
    best_fit_subspace,
    best_sis,
    gramian,
    solve,
    solve_sis_bundle,
    sparsity_curve,
)

from helpers import rel_err

POWERS = st.integers(-60, 60)
SEEDS = st.integers(0, 2**32 - 1)


def _same_up_to_4k(base, scaled, k):
    assert scaled.objective == base.objective * 4.0**k
    assert scaled.per_restart_objectives == tuple(v * 4.0**k for v in base.per_restart_objectives)
    assert scaled.iterations_per_restart == base.iterations_per_restart
    assert np.array_equal(scaled.partition.assignment, base.partition.assignment)
    assert scaled.converged == base.converged


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=POWERS, seed=SEEDS, m=st.integers(8, 30), dim=st.integers(2, 5),
       l=st.integers(2, 3), n=st.integers(0, 3),
       init=st.sampled_from(["random_partition", "farthest_point"]))
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
    base = solve_sis_bundle(DataSet(x), structure, l, n, cfg)
    scaled = solve_sis_bundle(DataSet(x * 2.0**k), structure, l, n, cfg)
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
