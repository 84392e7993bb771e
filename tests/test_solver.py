import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (
    DataSet,
    EmptyDataSet,
    SolveConfig,
    TooLarge,
    best_fit_subspace,
    brute_force,
    gamma,
    generate,
    objective_e,
    solve,
    sparsity_curve,
)
from uosfit.bundles import nearest
from uosfit.solver import _best_descent, _descend, _farthest_point_assignment, search
from helpers import lines_dataset, random_dataset


class TestSolve:
    def test_two_lines_noiseless(self):
        rng = np.random.default_rng(0)
        f = lines_dataset(rng, [[1.0, 2.0, -1.0], [-2.0, 0.5, 1.0]], 10)
        rep = solve(f, SolveConfig(l=2, n=1, restarts=8, seed=1))
        assert rep.objective <= 1e-12
        assert rep.converged

    def test_l1_is_pca(self):
        # single-partition case: objective equals the best-fit error exactly
        rng = np.random.default_rng(1)
        for seed in range(10):
            f = random_dataset(rng, int(rng.integers(2, 10)), int(rng.integers(1, 5)))
            n = int(rng.integers(0, 3))
            rep = solve(f, SolveConfig(l=1, n=n, restarts=2, seed=seed))
            assert rep.objective == best_fit_subspace(f, n).error

    def test_one_subspace_per_point(self):
        # l = m: spanning each point by itself reaches zero error; the
        # farthest-point seeding lands there directly
        rng = np.random.default_rng(2)
        f = random_dataset(rng, 5, 3)
        cfg = SolveConfig(l=5, n=1, restarts=8, seed=0, init_strategy="farthest_point")
        rep = solve(f, cfg)
        assert rep.objective <= 1e-12

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataSet):
            solve(DataSet(np.zeros((0, 2))), SolveConfig(l=1, n=1))

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(3)
        f = random_dataset(rng, 10, 3)
        cfg = SolveConfig(l=2, n=1, restarts=6, seed=42)
        r1, r2 = solve(f, cfg), solve(f, cfg)
        assert r1.objective == r2.objective
        assert r1.partition.assignment.tolist() == r2.partition.assignment.tolist()
        assert r1.per_restart_objectives == r2.per_restart_objectives

    def test_farthest_point_init(self):
        rng = np.random.default_rng(4)
        f = lines_dataset(rng, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 8, noise=0.01)
        cfg = SolveConfig(l=2, n=1, restarts=4, seed=0, init_strategy="farthest_point")
        rep = solve(f, cfg)
        assert rep.converged
        assert rep.objective < 0.1

    def test_report_accounting(self):
        rng = np.random.default_rng(5)
        f = random_dataset(rng, 9, 3)
        rep = solve(f, SolveConfig(l=3, n=1, restarts=5, seed=7))
        assert rep.objective == min(rep.per_restart_objectives)
        assert len(rep.per_restart_objectives) == 5
        assert len(rep.iterations_per_restart) == 5
        assert len(rep.degenerate_flags) == 3
        assert rep.objective_trace[-1] == rep.objective

    def test_monotone_strict_descent_trace(self):
        rng = np.random.default_rng(6)
        for seed in range(30):
            f = random_dataset(rng, 10, 3)
            rep = solve(f, SolveConfig(l=2, n=1, restarts=1, seed=seed))
            t = rep.objective_trace
            for a, b in zip(t[:-2], t[1:-1]):
                assert b < a
            if len(t) >= 2:
                assert t[-1] <= t[-2]


class TestBruteForce:
    def test_collinear_pair(self):
        f = DataSet([[1.0, 0.0], [2.0, 0.0]])
        obj, _, _ = brute_force(f, 2, 1)
        assert obj <= 1e-15

    def test_three_points_by_hand(self):
        # cells {(3,0)} and {(0,1),(0,2)} fit exactly by two lines
        f = DataSet([[3.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        obj, part, _ = brute_force(f, 2, 1)
        assert obj <= 1e-15
        groups = part.assignment.tolist()
        assert groups[1] == groups[2] and groups[0] != groups[1]

    def test_l1_equals_best_fit(self):
        rng = np.random.default_rng(8)
        f = random_dataset(rng, 6, 3)
        obj, _, _ = brute_force(f, 1, 2)
        assert obj == best_fit_subspace(f, 2).error

    def test_guard(self):
        f = DataSet(np.random.default_rng(0).standard_normal((30, 2)))
        with pytest.raises(TooLarge):
            brute_force(f, 2, 1)

    def test_oracle_sandwich(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            f = random_dataset(rng, 6, 3)
            oracle, _, _ = brute_force(f, 2, 1)
            rep = solve(f, SolveConfig(l=2, n=1, restarts=16, seed=seed))
            assert rep.objective >= oracle - 1e-9

    def test_certificate_is_fixed_point(self):
        rng = np.random.default_rng(10)
        f = random_dataset(rng, 7, 3)
        obj, part, bundle = brute_force(f, 2, 1)
        assert abs(gamma(f, part, bundle) - obj) <= 1e-12 * (1.0 + obj)
        assert abs(objective_e(f, bundle) - obj) <= 1e-10 * (1.0 + obj)


class TestSparsityCurve:
    def test_monotone_in_l(self):
        rng = np.random.default_rng(11)
        f = random_dataset(rng, 12, 4)
        rows = sparsity_curve(f, range(1, 6), [1], SolveConfig(l=1, n=1, restarts=3, seed=0))
        eps = [r.epsilon for r in rows]
        assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_l_at_least_m_gives_zero(self):
        rng = np.random.default_rng(12)
        f = random_dataset(rng, 4, 3)
        rows = sparsity_curve(f, [4, 5], [1], SolveConfig(l=1, n=1, restarts=6, seed=0))
        assert all(r.epsilon <= 1e-12 for r in rows)

    def test_generating_model_reaches_zero(self):
        data, _ = generate(l=2, n=1, ambient_dim=4, points_per_subspace=8, seed=5)
        rows = sparsity_curve(data, [1, 2], [1], SolveConfig(l=1, n=1, restarts=8, seed=0))
        by_l = {r.l: r.epsilon for r in rows}
        assert by_l[2] <= 1e-12

    def test_row_grid_covers_product(self):
        rng = np.random.default_rng(13)
        f = random_dataset(rng, 6, 3)
        rows = sparsity_curve(f, [1, 2], [1, 2], SolveConfig(l=1, n=1, restarts=2, seed=0))
        assert [(r.l, r.n) for r in rows] == [(1, 1), (2, 1), (1, 2), (2, 2)]


def test_descend_raises_on_revisited_partition():
    # stubs whose reassignment flips between two partitions forever, with
    # gamma never meeting the nearest error: strict descent is broken
    first, second = np.zeros(2, dtype=np.intp), np.ones(2, dtype=np.intp)

    def fit_cells(assignment):
        return assignment.copy(), 1.0, (False, False)

    def distances(models):
        target = second if models[0] == 0 else first
        dmat = np.ones((2, 2))
        dmat[np.arange(2), target] = 0.0
        return dmat

    with pytest.raises(ArithmeticError, match="revisited"):
        _descend(first, fit_cells, distances, tol=0.0, max_iters=10)


def reference_farthest_point(m, l, rng, singleton_dists):
    """The set-based seeding that the boolean-mask version replaced."""
    first = int(rng.integers(m))
    chosen = {first}
    d = singleton_dists(first)
    mins = d.copy()
    seed_dists = [d]
    for _ in range(1, l):
        if len(chosen) < m:
            cand = np.array([i for i in range(m) if i not in chosen], dtype=np.intp)
            nxt = int(cand[np.argmax(mins[cand])])
        else:
            nxt = int(np.argmax(mins))
        chosen.add(nxt)
        d = singleton_dists(nxt)
        seed_dists.append(d)
        np.minimum(mins, d, out=mins)
    return nearest(np.stack(seed_dists).T)


@st.composite
def singleton_tables(draw):
    """(m, l, table): row j of the table is the distance map of point j, with
    small integer values (many ties) and some all-zero rows."""
    m = draw(st.integers(1, 12))
    l = draw(st.integers(1, 16))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                         min_size=m, max_size=m))
    table = np.array(rows, dtype=np.float64)
    for j in draw(st.lists(st.integers(0, m - 1), max_size=m)):
        table[j] = 0.0
    return m, l, table


@settings(max_examples=300, deadline=None)
@given(singleton_tables(), st.integers(0, 2**32 - 1))
def test_farthest_point_matches_set_based_reference(case, seed):
    m, l, table = case

    def dists(j):
        return table[j].copy()

    got = _farthest_point_assignment(m, l, np.random.default_rng(seed), dists)
    want = reference_farthest_point(m, l, np.random.default_rng(seed), dists)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _constant_maps(refit_gammas, nearest_sum):
    """Stub maps for two points in one cell: gamma is taken from
    ``refit_gammas`` call by call, and the distances sum to ``nearest_sum``."""
    gammas = iter(refit_gammas)

    def fit_cells(assignment):
        return ("model",), next(gammas), (False,)

    def distances(models):
        return np.array([[nearest_sum / 2.0], [nearest_sum / 2.0]])

    return fit_cells, distances, None


@pytest.mark.parametrize("refit_gammas, nearest_sum, converged", [
    ((1.0, 1.0), 1.0, True),    # a true fixed point
    ((1.0, 0.5), 1.0, False),   # re-fitting the cells goes below the objective
    ((1.0, 1.0), 2.0, False),   # the nearest-model error does not match gamma
])
def test_search_reverifies_the_winning_pair(refit_gammas, nearest_sum, converged):
    cfg = SolveConfig(l=1, n=0, restarts=1)
    rep = search(DataSet(np.ones((2, 1))), cfg, *_constant_maps(refit_gammas, nearest_sum))
    assert rep.objective == 1.0
    assert rep.converged is converged
    assert rep.per_restart_objectives == (1.0,)


def _gamma_by_assignment(gamma_of):
    """Stub maps whose gamma is ``gamma_of(assignment)``, at a fixed point."""

    def fit_cells(assignment):
        g = gamma_of(assignment)
        return (assignment.copy(), g), g, (False, False)

    def distances(models):
        assignment, g = models
        dmat = np.zeros((assignment.size, 2))
        dmat[0] = g
        return dmat

    return fit_cells, distances, None


def test_best_descent_prefers_cold_restart_on_ties():
    cfg = SolveConfig(l=2, n=0, restarts=3, seed=5)
    warm = np.arange(6, dtype=np.intp) % 2
    best, restarts = _best_descent(6, cfg, 0.0, *_gamma_by_assignment(lambda a: 1.0), seeds=[warm])
    assert len(restarts) == 3
    assert best is restarts[0]


def test_best_descent_takes_strictly_better_warm_seed():
    cfg = SolveConfig(l=2, n=0, restarts=3, seed=5)
    warm = np.arange(12, dtype=np.intp) % 2
    maps = _gamma_by_assignment(lambda a: 0.5 if np.array_equal(a, warm) else 1.0)
    best, restarts = _best_descent(12, cfg, 0.0, *maps, seeds=[warm])
    assert [r.objective for r in restarts] == [1.0, 1.0, 1.0]
    assert best.objective == 0.5
    assert np.array_equal(best.assignment, warm)
