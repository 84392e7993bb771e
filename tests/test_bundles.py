import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (
    Bundle,
    DataSet,
    DimensionMismatch,
    IndexOutOfRange,
    Partition,
    Subspace,
    best_bundle,
    best_partition,
    best_fit_subspace,
    gamma,
    objective_e,
    total_error,
)
from uosfit.bundles import fit_partition
from helpers import random_dataset


def axes_bundle():
    return Bundle((Subspace(2, [[1.0, 0.0]]), Subspace(2, [[0.0, 1.0]])))


def random_bundle(rng, l, n, dim):
    subs = []
    for _ in range(l):
        k = int(rng.integers(0, n + 1))
        subs.append(Subspace.span(rng.standard_normal((k, dim))) if k else Subspace.zero(dim))
    return Bundle(tuple(subs))


class TestObjective:
    def test_axes_example(self):
        f = DataSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert objective_e(f, axes_bundle()) == pytest.approx(1.0)

    def test_contained_data(self):
        f = DataSet([[2.0, 0.0], [0.0, -3.0]])
        assert objective_e(f, axes_bundle()) <= 1e-20

    def test_single_subspace_reduction(self):
        rng = np.random.default_rng(0)
        f = random_dataset(rng, 6, 3)
        v = Subspace.span(rng.standard_normal((2, 3)))
        assert objective_e(f, Bundle((v,))) == total_error(f, v)


class TestGamma:
    def test_matches_e_on_best_partition(self):
        rng = np.random.default_rng(1)
        f = random_dataset(rng, 8, 3)
        bundle = random_bundle(rng, 3, 2, 3)
        p = best_partition(f, bundle)
        assert gamma(f, p, bundle) == objective_e(f, bundle)

    def test_swapped_assignment(self):
        f = DataSet([[1.0, 0.0], [0.0, 1.0]])
        p = Partition([1, 0], 2)
        assert gamma(f, p, axes_bundle()) == pytest.approx(2.0)
        assert objective_e(f, axes_bundle()) == pytest.approx(0.0)

    def test_zero_subspace_cell(self):
        f = DataSet([[1.0, 2.0], [3.0, 4.0]])
        bundle = Bundle((Subspace.zero(2), Subspace(2, [[1.0, 0.0]])))
        p = Partition([0, 0], 2)
        assert gamma(f, p, bundle) == pytest.approx(float(np.sum(f.vectors**2)))

    def test_cell_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            Partition([0, 2], 2)

    def test_length_validation(self):
        f = DataSet([[1.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            gamma(f, Partition([0, 1], 2), axes_bundle())

    def test_domination(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            l = int(rng.integers(1, 4))
            f = random_dataset(rng, m, 3)
            bundle = random_bundle(rng, l, 2, 3)
            p = Partition(rng.integers(0, l, m), l)
            assert objective_e(f, bundle) <= gamma(f, p, bundle)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 300), dim=st.integers(1, 6), l=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_gamma_bounds_e_exactly(m, dim, l, seed):
    # one distance matrix, summed over the same tree: no tolerance either way
    rng = np.random.default_rng(seed)
    f = DataSet(rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0, size=(m, 1)))
    bundle = random_bundle(rng, l, dim, dim)
    e = objective_e(f, bundle)
    assert gamma(f, best_partition(f, bundle), bundle).hex() == e.hex()
    for _ in range(5):
        assert e <= gamma(f, Partition(rng.integers(0, l, m), l), bundle)


class TestBestPartition:
    def test_tie_goes_to_lowest_index(self):
        f = DataSet([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        p = best_partition(f, axes_bundle())
        assert p.assignment.tolist() == [0, 1, 0]

    def test_identical_subspaces_total_tie(self):
        v = Subspace(2, [[1.0, 0.0]])
        f = DataSet([[1.0, 2.0], [3.0, 4.0]])
        p = best_partition(f, Bundle((v, v)))
        assert p.assignment.tolist() == [0, 0]

    def test_two_disjoint_lines(self):
        rng = np.random.default_rng(3)
        d1 = np.array([1.0, 0.0, 0.0])
        d2 = np.array([0.0, 1.0, 0.0])
        pts = np.vstack([np.outer(rng.standard_normal(5) + 2, d1),
                         np.outer(rng.standard_normal(5) + 2, d2)])
        f = DataSet(pts)
        bundle = Bundle((Subspace(3, d1[None, :]), Subspace(3, d2[None, :])))
        assert best_partition(f, bundle).assignment.tolist() == [0] * 5 + [1] * 5

    def test_minimality_vs_random_partitions(self):
        rng = np.random.default_rng(4)
        f = random_dataset(rng, 7, 3)
        bundle = random_bundle(rng, 3, 2, 3)
        best = gamma(f, best_partition(f, bundle), bundle)
        for _ in range(200):
            p = Partition(rng.integers(0, 3, 7), 3)
            assert best <= gamma(f, p, bundle)


class TestBestBundle:
    def test_empty_cell_maps_to_zero_subspace(self):
        f = DataSet([[1.0, 0.0], [2.0, 0.0]])
        bundle = best_bundle(f, Partition([0, 0], 2), 1)
        assert bundle[1].dim == 0

    def test_exact_cells_give_zero_gamma(self):
        f = DataSet([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 5.0]])
        p = Partition([0, 0, 1, 1], 2)
        bundle = best_bundle(f, p, 1)
        assert gamma(f, p, bundle) <= 1e-12

    def test_cellwise_error_by_hand(self):
        # first cell {(3,0),(0,1)}: Gram eigenvalues {9, 1}, best-fit error 1 at n=1
        f = DataSet([[3.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        p = Partition([0, 0, 1], 2)
        _, errors, _ = fit_partition(f, p, 1)
        assert errors[0] == pytest.approx(1.0, rel=1e-12)
        assert errors[1] == 0.0

    def test_minimality_vs_random_bundles(self):
        rng = np.random.default_rng(5)
        f = random_dataset(rng, 7, 3)
        p = Partition(rng.integers(0, 3, 7), 3)
        best = gamma(f, p, best_bundle(f, p, 2))
        for _ in range(200):
            bundle = random_bundle(rng, 3, 2, 3)
            assert best <= gamma(f, p, bundle) + 1e-12

    def test_matches_best_fit_per_cell(self):
        rng = np.random.default_rng(6)
        f = random_dataset(rng, 9, 4)
        p = Partition(rng.integers(0, 2, 9), 2)
        bundle = best_bundle(f, p, 2)
        for idx, sub in zip(p.cells(), bundle):
            cell = f.subset(idx)
            fit = best_fit_subspace(cell, 2)
            assert total_error(cell, sub) <= fit.error + 1e-12


class TestFixedPointIdentity:
    def test_gamma_equals_e_at_fixed_points(self):
        from uosfit import SolveConfig, solve

        rng = np.random.default_rng(7)
        for seed in range(20):
            f = random_dataset(rng, 8, 3)
            rep = solve(f, SolveConfig(l=2, n=1, restarts=4, seed=seed))
            assert rep.converged
            g = gamma(f, rep.partition, rep.bundle)
            e = objective_e(f, rep.bundle)
            assert abs(g - e) <= 1e-10 * (1.0 + e)
