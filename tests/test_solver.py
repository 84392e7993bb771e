from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    solve_sis_bundle,
    sparsity_curve,
)
from uosfit import solver
from uosfit.bundles import Partition, distance_matrix, fit_partition, nearest
from uosfit.spectral import STOP_TOL
from uosfit.sis import _ShiftInvariantCells
from uosfit.solver import (
    _Chain,
    _cold_starts,
    _farthest_point_starts,
    _lockstep,
    _prescaled,
    _sample_size,
    _step,
    _Subspaces,
    search,
)
from helpers import (close_rel, lines_dataset, planted_union, random_dataset, rel_err,
                     sis_signals_from_generator)


def _stub_report(objective, m):
    """What a stub search reports: ``objective``, every point in cell 0 at
    residual 0."""
    return SimpleNamespace(objective=objective,
                           partition=SimpleNamespace(assignment=np.zeros(m, dtype=np.intp)),
                           residuals_sq=(0.0,) * m)


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
        # farthest-point seeding lands there directly, and every search of
        # l >= m cells also starts there
        rng = np.random.default_rng(2)
        f = random_dataset(rng, 5, 3)
        for init in ("farthest_point", "random_partition"):
            cfg = SolveConfig(l=5, n=1, restarts=8, seed=0, init_strategy=init)
            rep = solve(f, cfg)
            assert rep.objective <= 1e-12

    # (m, N, l) with l >= m, fixed before the first run; at d31fe59, which
    # seeded one cell per point only in the sweep, the default init ended
    # above 0 on 4, 4, 20 and 20 of the 20 inputs of each shape
    @pytest.mark.parametrize("init", ["random_partition", "farthest_point"])
    @pytest.mark.parametrize("m, dim, l", [(5, 3, 5), (6, 3, 7), (8, 4, 8), (12, 5, 12)])
    def test_l_at_least_m_fits_every_point_exactly(self, m, dim, l, init):
        for seed in range(20):
            x = np.random.default_rng((m, seed)).standard_normal((m, dim))
            data, cfg = DataSet(x), SolveConfig(l=l, n=1, seed=seed, init_strategy=init)
            rep = solve(data, cfg)
            assert rep.objective == 0.0 and rep.converged
            rows = sparsity_curve(data, [l], [0, 1], cfg)
            assert [(r.l, r.n) for r in rows] == [(l, 0), (l, 1)]
            assert rows[1].epsilon == rep.objective
            # at n = 0 every model is the zero subspace: the data energy, up
            # to the order of its sum, which the sweep's row shares
            zero = solve(data, replace(cfg, n=0))
            assert close_rel(zero.objective, float(np.sum(x * x)), 1e-12) and zero.converged
            assert rows[0].epsilon == zero.objective

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
                            lambda data, cfg, family_of, seeds: _stub_report(objectives[cfg.l], data.m))
        data = random_dataset(np.random.default_rng(0), 5, 2)
        rows = sparsity_curve(data, [1, 2, 3], [1], SolveConfig(l=1, n=1))
        # the searches see the data divided by 2^e: their objectives come back times 4^e
        scale = 4.0 ** _prescaled(data)[1]
        assert [r.epsilon.hex() for r in rows] == [(scale * v).hex() for v in (5.0, 5.0, 3.0)]

    def test_the_floor_along_n_alone_keeps_epsilon_non_increasing(self, monkeypatch):
        # A row whose search ends above the (l, previous n) epsilon keeps that
        # epsilon; the floor along l then applies to what it kept.
        objectives = {(1, 0): 9.0, (2, 0): 6.0, (1, 2): 8.0, (2, 2): 7.0, (1, 3): 2.0, (2, 3): 4.0}
        monkeypatch.setattr(
            "uosfit.solver.search",
            lambda data, cfg, family_of, seeds: _stub_report(objectives[cfg.l, cfg.n], data.m))
        data = random_dataset(np.random.default_rng(0), 5, 4)
        rows = sparsity_curve(data, [1, 2], [0, 2, 3], SolveConfig(l=1, n=1))
        assert [(r.l, r.n) for r in rows] == [(1, 0), (2, 0), (1, 2), (2, 2), (1, 3), (2, 3)]
        scale = 4.0 ** _prescaled(data)[1]
        assert [r.epsilon.hex() for r in rows] == [(scale * v).hex()
                                                   for v in (9.0, 6.0, 8.0, 6.0, 2.0, 2.0)]

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

    def test_the_sweep_scales_once_and_takes_no_distances_of_its_own(self, monkeypatch):
        # One distance_matrix call per search, the winner's refit: the splits
        # read the kept reports' residuals.  Every search gets the data the
        # sweep divided by a power of two, whose largest entry lies in [1, 2).
        calls, peaks = [], []

        def counted(dataset, bundle):
            calls.append(len(bundle))
            return distance_matrix(dataset, bundle)

        def peeking(data, cfg, family_of, seeds):
            peaks.append(float(np.abs(data.vectors).max()))
            return search(data, cfg, family_of, seeds)

        monkeypatch.setattr("uosfit.solver.distance_matrix", counted)
        monkeypatch.setattr("uosfit.solver.search", peeking)
        x = 100.0 * planted_union(2001, l=4, n=3, dim=16, points=64, sigma=0.05)
        assert not 1.0 <= np.abs(x).max() < 2.0
        sparsity_curve(DataSet(x), range(1, 5), [3], SolveConfig(l=1, n=0, restarts=4))
        assert calls == [1, 2, 3, 4]
        assert len(peaks) == 4 and all(1.0 <= peak < 2.0 for peak in peaks)

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
            row = {"l": cfg.l, "seeds": [s.copy() for s in seeds]}
            row["report"] = search(data, cfg, family_of, seeds)
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
            # one cell per point (l >= m) is search's own start, not the sweep's
            assert [got.tolist() for got in row["seeds"]] == [split.tolist()]
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
            call = {"key": (cfg.l, cfg.n), "restarts": cfg.restarts,
                    "seeds": [s.copy() for s in seeds]}
            call["report"] = search(data, cfg, family_of, seeds)
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
        # the searches ran on the data divided by 2^e, once for the whole sweep
        scale = 4.0 ** _prescaled(DataSet(data))[1]
        assert [r.epsilon for r in rows] == [scale * kept[c["key"]].objective for c in swept]


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


class _Recording:
    """A family whose maps record the cells of each ``fit`` call, as bytes,
    and the model count of each ``distances`` call."""

    def __init__(self, family):
        self.family, self.l, self.fits, self.measures = family, family.l, [], []

    def fit(self, cells):
        self.fits.append([cell.tobytes() for cell in cells])
        return self.family.fit(cells)

    def distances(self, models):
        dist = self.family.distances(models)
        self.measures.append(len(dist))
        return dist

    def refit(self, assignment):
        return self.family.refit(assignment)


@pytest.mark.parametrize("data, cfg, meets", [
    (random_dataset(np.random.default_rng(11), 30, 4),
     SolveConfig(l=4, n=1, restarts=1, seed=3, init_strategy="farthest_point"), False),
    (random_dataset(np.random.default_rng(11), 30, 4),
     SolveConfig(l=4, n=1, restarts=7, seed=3, init_strategy="farthest_point"), False),
    # the two chains of five that go on after the first step meet at a
    # partition that step had, so the second step calls neither map
    (DataSet(planted_union(1, 2, 1, 3, 12, 0.05)),
     SolveConfig(l=2, n=1, restarts=5, seed=1, init_strategy="farthest_point"), True),
], ids=["1", "7", "meet"])
def test_farthest_point_seeding_makes_l_calls_for_all_restarts(monkeypatch, data, cfg, meets):
    # l seeding rounds of one call each, then one call of each map per step
    # that has a partition the previous step did not have, and none otherwise
    families, steps, previous = [], [], set()

    def family_of(data, l, n):
        families.append(_Recording(_Subspaces(data, l, n)))
        return families[-1]

    def step(live, family, tol, key_type, memo):
        nonlocal previous
        partitions = {chain.assignment.tobytes() for chain in live}
        calls = len(family.fits), len(family.measures)
        going = original(live, family, tol, key_type, memo)
        steps.append((bool(partitions - previous),
                      (family.fits[calls[0]:], family.measures[calls[1]:])))
        previous = partitions
        return going

    original = solver._step
    monkeypatch.setattr(solver, "_step", step)
    search(data, cfg, family_of)
    (family,) = families
    rounds = len(family.fits) - sum(len(fits) for _, (fits, _) in steps)
    assert rounds == cfg.l
    # each round fits one point of every restart
    assert [len(fits) for fits in family.fits[:rounds]] == [cfg.restarts] * cfg.l
    assert {len(cell) for fits in family.fits[:rounds] for cell in fits} == {np.intp(0).nbytes}
    assert family.measures[:rounds] == [cfg.restarts] * cfg.l
    for new, (fits, measures) in steps:
        assert len(fits) == len(measures) == (1 if new else 0)
        assert measures == [len(cells) for cells in fits]
    assert (not all(new for new, _ in steps)) == meets


class _ConstantMaps:
    """Stub family for two points in one cell: the step's gamma is 1, the
    step's distances sum to 1 and the refit's distances to ``nearest_sum``."""

    l = 1

    def __init__(self, nearest_sum):
        self.nearest_sum = nearest_sum

    def fit(self, cells):
        return [None] * len(cells), np.ones(len(cells))

    def distances(self, models):
        return np.full((len(models), 2), 0.5)

    def refit(self, assignment):
        return ("model",), (False,), np.full((2, 1), self.nearest_sum / 2.0)


@pytest.mark.parametrize("nearest_sum, converged", [
    (1.0, True),    # a true fixed point
    (2.0, False),   # the nearest-model error does not match gamma
])
def test_search_reverifies_the_winning_pair(nearest_sum, converged):
    cfg = SolveConfig(l=1, n=0, restarts=1)
    rep = search(DataSet(np.ones((2, 1))), cfg, lambda data, l, n: _ConstantMaps(nearest_sum))
    assert rep.objective == 1.0
    assert rep.converged is converged
    assert rep.per_restart_objectives == (1.0,)


@st.composite
def unit_scale_searches(draw):
    """Random data whose largest entry lies in [1, 2), a search config, and a
    shift structure for a shift-invariant search or None for a Euclidean
    one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 24))
    cfg = SolveConfig(l=draw(st.integers(1, 4)), n=draw(st.integers(0, 3)),
                      restarts=draw(st.integers(1, 4)), seed=draw(st.integers(0, 99)),
                      init_strategy=draw(st.sampled_from(["random_partition", "farthest_point"])))
    structure = draw(st.none() | st.sampled_from([2, 4, 8]).map(lambda step: ShiftStructure(8, step)))
    x = rng.standard_normal((m, draw(st.integers(1, 6)) if structure is None else 8))
    if structure is not None and draw(st.booleans()):
        x = x + 1j * rng.standard_normal(x.shape)
    parts = x.view(np.float64) if np.iscomplexobj(x) else x
    x = np.ldexp(parts, 1 - np.frexp(np.abs(parts).max())[1]).view(x.dtype)
    return DataSet(x), cfg, structure


@settings(max_examples=80, deadline=None, derandomize=True)
@given(unit_scale_searches())
def test_the_winners_refit_errors_sum_to_its_objective(case):
    # The refit fits the winner's cells through the same block-independent
    # stacked fit as the chain's last step, so it cannot go below the
    # objective: its errors, summed as the family's refit summed them, give
    # the objective bit for bit.
    data, cfg, structure = case
    assert 1.0 <= np.abs(data.vectors.view(np.float64)).max() < 2.0
    if structure is None:
        rep = solve(data, cfg)
        refit_sum = float(fit_partition(data, rep.partition, cfg.n)[1].sum())
    else:
        rep = solve_sis_bundle(data, structure, cfg)
        fits = [best_sis(data.subset(idx), structure, cfg.n) for idx in rep.partition.cells()]
        refit_sum = float(np.sum([f.error for f in fits]))
    assert refit_sum.hex() == rep.objective.hex()


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
        models, _ = self.fit([np.flatnonzero(assignment == i) for i in range(self.l)])
        return models, [False] * self.l, self.distances(models).T


def _seeded_search(m, per_point, warm):
    cfg = SolveConfig(l=2, n=0, restarts=3, seed=5)
    return search(DataSet(np.ones((m, 1))), cfg, lambda data, l, n: _CellMaps(m, per_point),
                  [warm])


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


def _route(family):
    """The name of a family's distance kernel."""
    return "complement" if isinstance(family, _Subspaces) else "shift-invariant"


@st.composite
def engine_cases(draw):
    """A family on random data and k starting partitions, after the name of
    its distance route (a failure names the kernel).  Many points in few
    cells make chains stop at different steps; few points give empty cells
    and l >= m; a step cap cuts some chains.  Some starts repeat cells:
    an exact repeat, a copy with its labels permuted, and the partition
    another start's chain fits second, so that chains meet at different
    step counts."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        m, l, n = draw(st.integers(12, 40)), draw(st.integers(2, 4)), draw(st.integers(1, 2))
    else:
        m = draw(st.integers(1, 6))
        l, n = draw(st.integers(1, m + 2)), draw(st.integers(0, 2))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 6))
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
    tol = float((STOP_TOL * data.norms_sq()).sum())
    for kind in draw(st.lists(st.sampled_from(["repeat", "permuted", "second"]), max_size=3)):
        start = starts[draw(st.integers(0, len(starts) - 1))]
        if kind == "permuted":
            start = rng.permutation(l)[start]
        elif kind == "second":
            (chain,) = _lockstep([start], family, tol, 1)
            start = chain.assignment
        starts.insert(draw(st.integers(0, len(starts))), start.copy())
    return _route(family), family, tol, starts, draw(st.sampled_from([100, 3, 2, 1]))


def _wide_label_case(init):
    """600 points in 260 cells, started by ``init``: labels past one byte, so
    the memo keys, ``_cells`` and the nearest pass all run on uint16 labels."""
    data = DataSet(np.random.default_rng(260).standard_normal((600, 3)))
    family = _Subspaces(data, 260, 1)
    starts = _cold_starts(family, data.m, SolveConfig(l=260, n=1, restarts=2, init_strategy=init))
    return _route(family), family, float((STOP_TOL * data.norms_sq()).sum()), starts, 100


def _step_by_step(start, family, tol, max_iters):
    """One chain run as one-step lockstep calls, so no step takes a cell of
    another: (trace, last fitted partition, converged)."""
    trace, assignment = [], start
    for _ in range(max_iters):
        (chain,) = _lockstep([assignment], family, tol, 1)
        trace += chain.trace
        if chain.converged:
            break
        assignment = chain.assignment
    return trace, chain.fitted, chain.converged


@settings(max_examples=120, deadline=None, derandomize=True)
@given(engine_cases())
@example(_wide_label_case("random_partition"))
@example(_wide_label_case("farthest_point"))
def test_lockstep_chains_match_one_start_searches(case):
    # each chain's arithmetic must not depend on which chains share its steps,
    # nor on which of its cells a step took from an earlier one
    _, family, tol, starts, max_iters = case
    together = _lockstep(starts, family, tol, max_iters)
    for start, chain in zip(starts, together):
        (alone,) = _lockstep([start], family, tol, max_iters)
        trace, fitted, converged = _step_by_step(start, family, tol, max_iters)
        for other in (alone, SimpleNamespace(trace=trace, fitted=fitted, converged=converged)):
            assert [v.hex() for v in chain.trace] == [v.hex() for v in other.trace]
            assert np.array_equal(chain.fitted, other.fitted)
            assert chain.converged == other.converged
        assert len(chain.trace) <= max_iters


class _Means:
    """Stub family of l cells of points on a line (one-dimensional k-means):
    a cell's model is its index array, its error the squared deviations
    from its mean, and a point's distance to it the squared distance to
    that mean (0 for an empty cell)."""

    def __init__(self, x, l):
        self.x, self.l = x, l

    def _centre(self, cell):
        return self.x[cell].mean() if cell.size else 0.0

    def fit(self, cells):
        return list(cells), np.array([((self.x[c] - self._centre(c)) ** 2).sum() for c in cells])

    def distances(self, models):
        return np.array([(self.x - self._centre(c)) ** 2 for c in models])


def _cells_of(partitions, l):
    """The cells of ``partitions``, cell-major, as bytes."""
    return [np.flatnonzero(p == i).tobytes() for i in range(l) for p in partitions]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), l=st.integers(2, 4), m=st.integers(3, 14))
def test_a_step_fits_and_measures_each_new_partition_once(seed, l, m):
    # Starts with an exact repeat, a label-permuted copy and another
    # chain's second partition; each step hands ``fit`` and ``distances``,
    # in one call each, the cells (cell-major) of exactly the partitions
    # that neither an earlier chain of the step nor the previous step had,
    # each once.  The repeat and the second partition add no fit; the
    # permuted copy, another start's cells under other labels, is fitted.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m)
    a, b = (rng.integers(0, l, size=m).astype(np.intp) for _ in range(2))
    (first,) = _lockstep([a], _Means(x, l), 1e-9, 1)
    permuted = rng.permutation(l)[b]
    starts = [a, b, a.copy(), permuted, first.assignment.copy()]
    family = _Recording(_Means(x, l))
    live, memo, previous = [_Chain(start) for start in starts], {}, set()
    while live:
        partitions = {chain.assignment.tobytes(): chain.assignment for chain in live}
        new = [p for key, p in partitions.items() if key not in previous]
        previous = set(partitions)
        calls = len(family.fits), len(family.measures)
        live = _step(live, family, 1e-9, np.uint8, memo)
        fits, measures = family.fits[calls[0]:], family.measures[calls[1]:]
        assert fits == ([_cells_of(new, l)] if new else [])
        assert measures == [len(cells) for cells in fits]
        # the memo keeps only this step's partitions
        assert len(memo) == len(previous)
    assert len(family.fits[0]) == l * len({start.tobytes() for start in starts})
    if permuted.tobytes() != b.tobytes():
        assert all(family.fits[0].count(cell) >= 2 for cell in _cells_of([b], l))


def test_a_step_of_repeated_partitions_calls_neither_map():
    # The first start's second partition is the second start, a fixed point:
    # the first chain's second step takes it from the first step, so the
    # one call of each map is the first step's.
    x = np.array([0.0, 0.1, 0.2, 10.0, 10.1, 10.2])
    starts = [np.array([0, 0, 1, 1, 1, 1]), np.array([0, 0, 0, 1, 1, 1])]
    family = _Recording(_Means(x, 2))
    moved, fixed = _lockstep(starts, family, 1e-9, 10)
    assert [len(cells) for cells in family.fits] == family.measures == [4]
    assert np.array_equal(moved.fitted, fixed.fitted)
    assert moved.converged and fixed.converged
    assert [v.hex() for v in moved.trace[1:]] == [v.hex() for v in fixed.trace]
    assert moved.trace[0] > moved.trace[1]


def test_one_cell_restarts_make_one_fit_of_one_cell():
    # at l = 1 every restart's one cell holds every point
    families = []

    def family_of(data, l, n):
        families.append(_Recording(_Subspaces(data, l, n)))
        return families[-1]

    rep = search(random_dataset(np.random.default_rng(4), 20, 3), SolveConfig(l=1, n=1, restarts=4),
                 family_of)
    assert [len(cells) for cells in families[0].fits] == families[0].measures == [1]
    assert rep.iterations_per_restart == (1, 1, 1, 1) and rep.converged


@st.composite
def seeding_cases(draw):
    """A family on planted data (points on two random lines or planes, or
    signals from two shift-invariant generators) with some points repeated,
    and the first seeds of a few starts, after the name of its distance
    route."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 10))
    l, n = draw(st.integers(1, m + 3)), draw(st.integers(0, 2))
    planted = rng.integers(2, size=m)
    if draw(st.booleans()):
        dim = draw(st.integers(1, 6))
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
    family = family_of(DataSet(x))
    return _route(family), family, m, firsts


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seeding_cases())
def test_lockstep_seeding_matches_one_start_seeding(case):
    # each start's seeds and labels must not depend on which starts share a round
    _, family, m, firsts = case
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


# The screen of tall searches.  (m, l): the benchmark's shapes (tall-fit
# 12000 points at l = 4; wide-sweep 64 at l <= 4; sis-fit 32 signals at
# l = 2; the 80-point tiny input of tall-fit) and the largest searches the
# rest of tests/ runs (64 points, l <= 8).
@pytest.mark.parametrize("m, l, screened", [
    (12000, 4, True),
    *[(64, l, False) for l in range(1, 9)],
    (32, 2, False),
    (80, 4, False),
])
def test_the_rule_screens_tall_fit_and_no_smaller_shape(m, l, screened):
    assert bool(_sample_size(m, l)) is screened


@pytest.mark.parametrize("l", [1, 2, 4, 6])
def test_the_rule_screens_from_three_samples_of_a_thousand_points_per_cell(l):
    size = 1000 * l
    assert _sample_size(3 * size - 1, l) == 0
    assert _sample_size(3 * size, l) == _sample_size(10**6, l) == size


# A planted input the rule screens at l = 2: 6000 points in R^3 near three
# lines, so its restarts end in more than one basin.
TALL = planted_union(29, l=3, n=1, dim=3, points=6000, sigma=0.1)


@pytest.mark.parametrize("init", ["random_partition", "farthest_point"])
def test_screened_restarts_report_their_bundle_error_on_all_the_data(init):
    cfg = SolveConfig(l=2, n=1, restarts=3, seed=5, init_strategy=init)
    report = solve(DataSet(TALL), cfg)
    # The restarts' chains, rebuilt: the sample is drawn from the stream
    # seeded by (seed, restarts), without replacement, in index order.
    scaled, e = _prescaled(DataSet(TALL))
    size = _sample_size(scaled.m, cfg.l)
    rng = np.random.default_rng((cfg.seed, cfg.restarts))
    sample = scaled.subset(np.sort(rng.choice(scaled.m, size, replace=False)))
    family = _Subspaces(sample, cfg.l, cfg.n)
    chains = _lockstep(_cold_starts(family, size, cfg), family,
                       float((STOP_TOL * sample.norms_sq()).sum()), solver.MAX_ITERS)
    assert report.iterations_per_restart == tuple(len(c.trace) for c in chains)
    assert len(set(report.per_restart_objectives)) > 1
    for chain, got in zip(chains, report.per_restart_objectives):
        bundle, _, _ = fit_partition(sample, Partition(chain.fitted, cfg.l), cfg.n)
        want = 4.0**e * float(distance_matrix(scaled, bundle).min(axis=1).sum())
        assert rel_err(got, want) <= 1e-12
    # The finishing chain starts from the best of these bundles, so it ends
    # no higher, and at a certificate on all the data.
    assert report.objective <= min(report.per_restart_objectives) + STOP_TOL * float(np.sum(TALL**2))
    assert report.converged
    assert report.objective_trace[-1] == report.objective
    assert len(report.residuals_sq) == len(TALL)


def test_a_tall_sweep_runs_its_split_seeds_with_the_finishing_chain(monkeypatch):
    # Every row of this sweep is screened.  A row's full-data lockstep runs
    # the chain finishing its best screened restart first, then its seeds.
    data = DataSet(planted_union(8, l=4, n=1, dim=3, points=12000, sigma=0.05))
    assert all(_sample_size(data.m, l) for l in range(1, 5))
    full, splits = [], []

    def lockstep(starts, family, tol, max_iters):
        if family.x.shape[0] == data.m:
            full.append([s.copy() for s in starts])
        return _lockstep(starts, family, tol, max_iters)

    solver_split = solver._split

    def split(kept, l):
        splits.append(solver_split(kept, l))
        return splits[-1]

    monkeypatch.setattr(solver, "_lockstep", lockstep)
    monkeypatch.setattr(solver, "_split", split)
    rows = sparsity_curve(data, [1, 2, 3, 4], [1], SolveConfig(l=1, n=1, restarts=2))
    eps = [r.epsilon for r in rows]
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert [len(starts) for starts in full] == [1, 2, 2, 2]
    for starts, seed in zip(full[1:], splits):
        assert np.array_equal(starts[1], seed)
