from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (
    DataSet,
    EmptyDataSet,
    InvalidSpec,
    SolveConfig,
    TooLarge,
    best_fit_subspace,
    brute_force,
    gamma,
    ShiftStructure,
    best_sis,
    generate,
    objective_e,
    sis_distance_matrix,
    solve,
    sparsity_curve,
)
from uosfit.bundles import nearest
from uosfit.spectral import STOP_TOL
from uosfit.sis import _ShiftInvariantCells
from uosfit.solver import (
    _farthest_point_starts,
    _lockstep,
    _Subspaces,
    search,
)
from helpers import lines_dataset, planted_union, random_dataset, sis_signals_from_generator


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

    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataSet):
            sparsity_curve(DataSet(np.zeros((0, 2))), [1, 2], [1], SolveConfig(l=1, n=1))

    def test_the_floor_alone_keeps_epsilon_non_increasing(self, monkeypatch):
        # A row whose search ends above the previous epsilon keeps that epsilon.
        objectives = {1: 5.0, 2: 7.0, 3: 3.0}
        monkeypatch.setattr("uosfit.solver.search",
                            lambda data, cfg, family_of, seeds: SimpleNamespace(objective=objectives[cfg.l]))
        rows = sparsity_curve(random_dataset(np.random.default_rng(0), 5, 2), [1, 2, 3], [1],
                              SolveConfig(l=1, n=1))
        assert [r.epsilon.hex() for r in rows] == [(5.0).hex(), (5.0).hex(), (3.0).hex()]

    def test_the_floor_along_n_alone_keeps_epsilon_non_increasing(self, monkeypatch):
        # A row whose search ends above the (l, previous n) epsilon keeps that
        # epsilon; the floor along l then applies to what it kept.
        objectives = {(1, 0): 9.0, (2, 0): 6.0, (1, 2): 8.0, (2, 2): 7.0, (1, 3): 2.0, (2, 3): 4.0}
        monkeypatch.setattr(
            "uosfit.solver.search",
            lambda data, cfg, family_of, seeds: SimpleNamespace(objective=objectives[cfg.l, cfg.n]))
        rows = sparsity_curve(random_dataset(np.random.default_rng(0), 5, 4), [1, 2], [0, 2, 3],
                              SolveConfig(l=1, n=1))
        assert [(r.l, r.n) for r in rows] == [(1, 0), (2, 0), (1, 2), (2, 2), (1, 3), (2, 3)]
        assert [r.epsilon.hex() for r in rows] == [v.hex() for v in (9.0, 6.0, 8.0, 6.0, 2.0, 2.0)]

    @pytest.mark.parametrize("seed", [*range(2001, 2011), 2110])
    def test_epsilon_never_rises_along_l_or_n(self, seed):
        # seeds fixed before the first run; at seed 2008 the sweep without a
        # floor along n read 1.84 at (l, n) = (4, 3) and 5.21 at (4, 4)
        x = DataSet(planted_union(seed, l=4, n=3, dim=16, points=64, sigma=0.05))
        cfg = SolveConfig(l=1, n=0, restarts=4)
        rows = sparsity_curve(x, range(1, 7), range(0, 6), cfg)
        eps = {(r.l, r.n): r.epsilon for r in rows}
        for l in range(1, 7):
            for n in range(0, 6):
                assert l == 1 or eps[l, n] <= eps[l - 1, n]
                assert n == 0 or eps[l, n] <= eps[l, n - 1]
        # no row ends above the same row of a sweep over its one n (at seed
        # 2110 the single warm search read 8.43 at (4, 3) against 1.57)
        for n in range(0, 6):
            for row in sparsity_curve(x, range(1, 7), [n], cfg):
                assert eps[row.l, n] <= row.epsilon

    def test_every_size_is_checked_before_any_search(self, monkeypatch):
        monkeypatch.setattr("uosfit.solver.search", None)  # a search would raise TypeError
        with pytest.raises(InvalidSpec, match="^n must be an integer$"):
            sparsity_curve(random_dataset(np.random.default_rng(0), 5, 2), [1, 2], [1, 2.5],
                           SolveConfig(l=1, n=1))

    @pytest.mark.parametrize("init", ["random_partition", "farthest_point"])
    def test_each_row_gets_the_split_of_the_previous_winner(self, monkeypatch, init):
        # Recorded per row: the warm seeds search is given, and its report.
        calls = []

        def recording(data, cfg, family_of, seeds):
            row = {"l": cfg.l}

            def recorded(family):
                row["seeds"] = [s.copy() for s in seeds(family)]
                return row["seeds"]

            row["report"] = search(data, cfg, family_of, recorded)
            calls.append(row)
            return row["report"]

        monkeypatch.setattr("uosfit.solver.search", recording)
        m = 6
        data = random_dataset(np.random.default_rng(21), m, 3)
        sparsity_curve(data, range(1, m + 3), [1], SolveConfig(l=1, n=1, restarts=2, init_strategy=init))
        assert [row["l"] for row in calls] == list(range(1, m + 3))
        assert calls[0]["seeds"] == []
        prev = calls[0]["report"]
        for row in calls[1:]:
            l = row["l"]
            split = prev.partition.assignment.copy()
            # argmax: the largest residual, the lowest index on ties
            split[int(np.argmax(prev.residuals_sq))] = l - 1
            want = [split] if l < m else [np.arange(m), split]
            assert len(row["seeds"]) == len(want)
            for got, seed in zip(row["seeds"], want):
                assert got.tolist() == seed.tolist()
            if row["report"].objective < prev.objective:
                prev = row["report"]


    def test_each_row_runs_its_own_n_search_and_a_warm_one(self, monkeypatch):
        # Row (l, n) first runs the search of a sweep over n alone, with its
        # seeds.  After the first n a second search, with one cold restart,
        # starts from the split of the previous row's certificate when a
        # floor kept it from elsewhere, and from the certificate kept for l
        # at the previous n.
        calls = []

        def recording(data, cfg, family_of, seeds):
            call = {"key": (cfg.l, cfg.n), "restarts": cfg.restarts}

            def recorded(family):
                call["seeds"] = [s.copy() for s in seeds(family)]
                return call["seeds"]

            call["report"] = search(data, cfg, family_of, recorded)
            calls.append(call)
            return call["report"]

        def summary(call):
            return (call["key"], [s.tolist() for s in call["seeds"]], call["report"].objective)

        monkeypatch.setattr("uosfit.solver.search", recording)
        n_values, l_values = [0, 1, 3], [1, 2, 3]
        data = planted_union(2110, l=3, n=2, dim=6, points=12, sigma=0.3)
        cfg = SolveConfig(l=1, n=0, restarts=2)
        rows = sparsity_curve(DataSet(data), l_values, n_values, cfg)
        swept, warm = [c for c in calls if c["restarts"] == 2], [c for c in calls if c["restarts"] == 1]
        for n in n_values:
            calls.clear()
            sparsity_curve(DataSet(data), l_values, [n], cfg)
            assert [summary(c) for c in swept if c["key"][1] == n] == [summary(c) for c in calls]
        assert [c["key"] for c in warm] == [(l, n) for n in n_values[1:] for l in l_values]
        kept, chain, warm, elsewhere = {}, {}, iter(warm), 0
        for call in swept:
            (l, n), own = call["key"], call["report"]
            reports = [own]
            if n > n_values[0]:
                below = kept[l, n_values[n_values.index(n) - 1]]
                second = next(warm)
                from_elsewhere = l > 1 and kept[l - 1, n] is not chain[l - 1, n]
                elsewhere += from_elsewhere
                assert len(second["seeds"]) == 1 + from_elsewhere
                assert second["seeds"][-1].tolist() == below.partition.assignment.tolist()
                reports += [second["report"], below]
            chain[l, n] = own if l == 1 or own.objective < chain[l - 1, n].objective else chain[l - 1, n]
            best = None if l == 1 else kept[l - 1, n]
            for report in reports:
                if best is None or report.objective < best.objective:
                    best = report
            kept[l, n] = best
        assert elsewhere
        assert [r.epsilon for r in rows] == [kept[c["key"]].objective for c in swept]


def test_descend_raises_on_revisited_partition():
    # a stub family whose reassignment flips between two partitions forever,
    # with gamma never meeting the nearest error: strict descent is broken
    class Flip:
        l = 2

        def fit(self, cells):
            return list(cells), np.ones(len(cells))

        def distances(self, models):
            # each chain moves every point to its empty cell
            dist = np.ones((len(models), 2))
            for j in range(0, len(models), 2):
                dist[j + 1 if models[j].size else j] = 0.0
            return dist

    with pytest.raises(ArithmeticError, match="did not decrease"):
        _lockstep([np.zeros(2, dtype=np.intp)], Flip(), tol=0.0, max_iters=10)


def test_descend_raises_when_gamma_rises_on_a_fresh_partition():
    # a stub family that moves one more point to cell 1 each step, so no
    # partition repeats, while the gamma of its fits rises: strict descent is
    # broken before any revisit
    class Rise:
        l = 2
        calls = 0

        def fit(self, cells):
            self.calls += 1
            return list(cells), np.full(len(cells), float(self.calls))

        def distances(self, models):
            # cell 1 holds points 0..k-1 after k steps; point k joins it
            k = models[1].size + 1
            dist = np.ones((2, 4))
            dist[0, k:], dist[1, :k] = 0.0, 0.0
            return dist

    with pytest.raises(ArithmeticError, match="did not decrease"):
        _lockstep([np.zeros(4, dtype=np.intp)], Rise(), tol=0.0, max_iters=3)


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


class _TableMaps:
    """Stub family for seeding: the model of a cell is its point indices and
    the distances to the model of point j are row j of ``table``."""

    def __init__(self, l, table):
        self.l, self.table = l, table

    def fit(self, cells):
        models = [int(c[0]) for c in cells]
        return models, np.zeros(len(models))

    def distances(self, models):
        return self.table[models]


@settings(max_examples=300, deadline=None)
@given(singleton_tables(), st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3))
def test_farthest_point_matches_set_based_reference(case, seeds):
    # three starts seeded at once, each against the reference on its own stream
    m, l, table = case

    def dists(j):
        return table[j].copy()

    firsts = [np.random.default_rng(seed).integers(m) for seed in seeds]
    got = _farthest_point_starts(_TableMaps(l, table), m, firsts)
    for seed, labels in zip(seeds, got):
        want = reference_farthest_point(m, l, np.random.default_rng(seed), dists)
        assert labels.dtype == want.dtype
        assert np.array_equal(labels, want)


class _CountingSubspaces(_Subspaces):
    """``_Subspaces`` that counts its ``fit`` and ``distances`` calls."""

    def __init__(self, *args):
        super().__init__(*args)
        self.calls = {"fit": 0, "distances": 0}

    def fit(self, cells):
        self.calls["fit"] += 1
        return super().fit(cells)

    def distances(self, bases):
        self.calls["distances"] += 1
        return super().distances(bases)


@pytest.mark.parametrize("restarts", [1, 7])
def test_farthest_point_seeding_makes_l_calls_for_all_restarts(restarts):
    # l seeding rounds, then one call of each per lockstep step
    f = random_dataset(np.random.default_rng(11), 30, 4)
    cfg = SolveConfig(l=4, n=1, restarts=restarts, seed=3, init_strategy="farthest_point")
    families = []

    def family_of(data):
        families.append(_CountingSubspaces(data, cfg.l, cfg.n))
        return families[-1]

    rep = search(f, cfg, family_of)
    calls = cfg.l + max(rep.iterations_per_restart)
    assert families[0].calls == {"fit": calls, "distances": calls}


class _ConstantMaps:
    """Stub family for two points in one cell: the step's gamma and the
    refit's gamma are ``refit_gammas``, and the distances sum to
    ``nearest_sum``."""

    l = 1

    def __init__(self, refit_gammas, nearest_sum):
        self.gammas = refit_gammas
        self.nearest_sum = nearest_sum

    def fit(self, cells):
        return [None] * len(cells), np.full(len(cells), self.gammas[0])

    def distances(self, models):
        return np.full((len(models), 2), self.nearest_sum / 2.0)

    def refit(self, assignment):
        return ("model",), self.gammas[1], (False,)

    def bundle_distances(self, bundle):
        return np.full((2, 1), self.nearest_sum / 2.0)


@pytest.mark.parametrize("refit_gammas, nearest_sum, converged", [
    ((1.0, 1.0), 1.0, True),    # a true fixed point
    ((1.0, 0.5), 1.0, False),   # re-fitting the cells goes below the objective
    ((1.0, 1.0), 2.0, False),   # the nearest-model error does not match gamma
])
def test_search_reverifies_the_winning_pair(refit_gammas, nearest_sum, converged):
    cfg = SolveConfig(l=1, n=0, restarts=1)
    rep = search(DataSet(np.ones((2, 1))), cfg,
                 lambda data: _ConstantMaps(refit_gammas, nearest_sum))
    assert rep.objective == 1.0
    assert rep.converged is converged
    assert rep.per_restart_objectives == (1.0,)


class _CellMaps:
    """Stub family in two cells: a cell's model is its index array, its error
    ``per_point(cell)`` per point, and every point is nearest its own cell's
    model, so each partition is a fixed point."""

    l = 2

    def __init__(self, m, per_point):
        self.m, self.per_point = m, per_point

    def fit(self, cells):
        return list(cells), np.array([self.per_point(c) * c.size for c in cells])

    def distances(self, models):
        dist = np.full((len(models), self.m), 10.0)
        for row, cell in zip(dist, models):
            row[cell] = self.per_point(cell)
        return dist

    def refit(self, assignment):
        models, errors = self.fit([np.flatnonzero(assignment == i) for i in range(self.l)])
        return models, float(errors.sum()), [False] * self.l

    def bundle_distances(self, bundle):
        return self.distances(bundle).T


def _seeded_search(m, per_point, warm):
    cfg = SolveConfig(l=2, n=0, restarts=3, seed=5)
    return search(DataSet(np.ones((m, 1))), cfg, lambda data: _CellMaps(m, per_point),
                  lambda family: [warm])


def test_best_descent_prefers_cold_restart_on_ties():
    warm = np.arange(6, dtype=np.intp) % 2
    rep = _seeded_search(6, lambda c: 1.0, warm)
    assert rep.per_restart_objectives == (6.0, 6.0, 6.0)
    # every start is its own fixed point: the first cold restart's partition wins
    first = np.random.default_rng((5, 0)).integers(0, 2, size=6)
    assert not np.array_equal(first, warm)
    assert np.array_equal(rep.partition.assignment, first)
    assert rep.objective == 6.0 and rep.converged


def test_best_descent_takes_strictly_better_warm_seed():
    warm = np.arange(12, dtype=np.intp) % 2
    warm_cells = [np.flatnonzero(warm == i).tobytes() for i in range(2)]
    rep = _seeded_search(12, lambda c: 0.5 if c.tobytes() in warm_cells else 1.0, warm)
    assert rep.per_restart_objectives == (12.0, 12.0, 12.0)
    assert rep.objective == 6.0 and rep.converged
    assert np.array_equal(rep.partition.assignment, warm)


@st.composite
def engine_cases(draw):
    """A family on random data and k starting partitions.  Many points in
    few cells make chains stop at different steps; few points give empty
    cells and l >= m; a step cap cuts some chains."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        m, l, n = draw(st.integers(12, 40)), draw(st.integers(2, 4)), draw(st.integers(1, 2))
    else:
        m = draw(st.integers(1, 6))
        l, n = draw(st.integers(1, m + 2)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        dim = draw(st.integers(3, 6))
        data = DataSet(rng.standard_normal((m, dim)))
        family = _Subspaces(data, l, n)
    else:
        x = rng.standard_normal((m, 8))
        if draw(st.booleans()):
            x = x + 1j * rng.standard_normal((m, 8))
        data = DataSet(x)
        family = _ShiftInvariantCells(data, ShiftStructure(8, draw(st.sampled_from([4, 8, 2]))),
                                      l, n)
    starts = [rng.integers(0, l, size=m).astype(np.intp) for _ in range(draw(st.integers(2, 5)))]
    return family, float((STOP_TOL * data.norms_sq()).sum()), starts, draw(st.sampled_from([100, 3, 2, 1]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(engine_cases())
def test_lockstep_chains_match_one_start_searches(case):
    # each chain's arithmetic must not depend on which chains share its steps
    family, tol, starts, max_iters = case
    together = _lockstep(starts, family, tol, max_iters)
    for start, chain in zip(starts, together):
        (alone,) = _lockstep([start], family, tol, max_iters)
        assert [v.hex() for v in chain.trace] == [v.hex() for v in alone.trace]
        assert np.array_equal(chain.fitted, alone.fitted)
        assert chain.converged == alone.converged
        assert len(chain.trace) <= max_iters


@st.composite
def seeding_cases(draw):
    """A family on planted data (points on two random lines or planes, or
    signals from two shift-invariant generators) with some points repeated,
    and the first seeds of a few starts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 10))
    l, n = draw(st.integers(1, m + 3)), draw(st.integers(0, 2))
    planted = rng.integers(2, size=m)
    if draw(st.booleans()):
        dim = draw(st.integers(2, 6))
        bases = rng.standard_normal((2, min(2, dim), dim))
        x = np.einsum("mk,mkd->md", rng.standard_normal((m, bases.shape[1])), bases[planted])
        x += 0.01 * rng.standard_normal(x.shape)
        family_of = lambda data: _Subspaces(data, l, n)
    else:
        structure = ShiftStructure(8, draw(st.sampled_from([2, 4, 8])))
        gens = rng.standard_normal((2, 8))
        x = np.array([sis_signals_from_generator(rng, gens[c], structure, 1)[0]
                      for c in planted])
        family_of = lambda data: _ShiftInvariantCells(data, structure, l, n)
    for j in draw(st.lists(st.integers(1, m - 1), max_size=3) if m > 1 else st.just([])):
        x[j] = x[j - 1]
    firsts = rng.integers(m, size=draw(st.integers(2, 5)))
    return family_of(DataSet(x)), m, firsts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seeding_cases())
def test_lockstep_seeding_matches_one_start_seeding(case):
    # each start's seeds and labels must not depend on which starts share a round
    family, m, firsts = case
    together = _farthest_point_starts(family, m, firsts)
    for first, labels in zip(firsts, together):
        (alone,) = _farthest_point_starts(family, m, [first])
        assert labels.tobytes() == alone.tobytes()


def _seed_dists(family, j):
    """The distances farthest-point seeding takes for point j: to the
    family's fit of that point alone."""
    return family.distances(family.fit([np.array([j])])[0])[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.integers(1, 8), dim=st.integers(1, 6), n=st.integers(1, 4),
       zeros=st.lists(st.booleans(), min_size=8, max_size=8), seed=st.integers(0, 2**32 - 1))
def test_seeding_through_fit_matches_the_span_of_one_point(m, dim, n, zeros, seed):
    # the fit of one point is its span (the zero subspace for a zero point)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, dim))
    x[np.array(zeros[:m])] = 0.0
    family = _Subspaces(DataSet(x), 2, n)
    norms = np.einsum("ij,ij->i", x, x)
    for j in range(m):
        if norms[j] == 0.0:
            want = norms
        else:
            inner = x @ x[j]
            want = np.maximum(norms - inner * inner / norms[j], 0.0)
        assert np.all(np.abs(_seed_dists(family, j) - want) <= 1e-12 * norms)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shift_step", [1, 2, 4])
@pytest.mark.parametrize("is_complex", [False, True])
def test_sis_seeding_through_fit_is_the_one_signal_best_sis(n, shift_step, is_complex):
    # at any n >= 1 a single signal's model has rank <= 1 at every
    # frequency, so the family's fit is its best_sis at n = 1, bit for bit
    rng = np.random.default_rng(10 * n + shift_step)
    x = rng.standard_normal((7, 8))
    if is_complex:
        x = x + 1j * rng.standard_normal((7, 8))
    x[3] = 0.0
    data, structure = DataSet(x), ShiftStructure(8, shift_step)
    family = _ShiftInvariantCells(data, structure, 3, n)
    for j in range(data.m):
        model = best_sis(data.subset([j]), structure, 1).model
        want = sis_distance_matrix(data, [model], structure)[:, 0]
        assert _seed_dists(family, j).tobytes() == want.tobytes()
