import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (
    DataSet,
    DimensionMismatch,
    Subspace,
    best_fit_subspace,
    dist_sq,
    project,
    total_error,
)
from uosfit.subspace import best_fit_stack, residuals_sq
from helpers import close_rel, random_dataset

SQ2 = np.sqrt(2.0)
EPS = np.finfo(np.float64).eps


class TestProject:
    def test_axis(self):
        v = Subspace(2, [[1.0, 0.0]])
        assert np.allclose(project(v, [3.0, 4.0]), [3.0, 0.0])

    def test_zero_subspace(self):
        v = Subspace.zero(2)
        assert np.allclose(project(v, [3.0, 4.0]), [0.0, 0.0])

    def test_diagonal_line_by_hand(self):
        # <f, u> = 1/sqrt(2), so the projection is (0.5, 0.5)
        v = Subspace(2, [[1.0 / SQ2, 1.0 / SQ2]])
        assert np.allclose(project(v, [1.0, 0.0]), [0.5, 0.5])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            k = int(rng.integers(0, dim + 1))
            v = Subspace.span(rng.standard_normal((k, dim))) if k else Subspace.zero(dim)
            f = rng.standard_normal(dim)
            once = project(v, f)
            assert np.max(np.abs(project(v, once) - once)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(Subspace(2, [[1.0, 0.0]]), [1.0, 2.0, 3.0])


class TestDistSq:
    def test_axis(self):
        assert dist_sq(Subspace(2, [[1.0, 0.0]]), [0.0, 2.0]) == pytest.approx(4.0)

    def test_membership(self):
        v = Subspace(2, [[1.0 / SQ2, 1.0 / SQ2]])
        assert dist_sq(v, [2.0, 2.0]) <= 1e-20

    def test_diagonal_line_by_hand(self):
        # residual (0.5, -0.5) has squared norm 0.5
        v = Subspace(2, [[1.0 / SQ2, 1.0 / SQ2]])
        assert dist_sq(v, [1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_pythagoras(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            dim = int(rng.integers(1, 8))
            k = int(rng.integers(1, dim + 1))
            v = Subspace.span(rng.standard_normal((k, dim)))
            f = rng.standard_normal(dim)
            lhs = dist_sq(v, f) + float(np.sum(project(v, f) ** 2))
            rhs = float(f @ f)
            assert close_rel(lhs, rhs, 1e-10)


class TestTotalError:
    def test_empty_is_zero(self):
        assert total_error(DataSet(np.zeros((0, 2))), Subspace(2, [[1.0, 0.0]])) == 0.0

    def test_sum(self):
        f = DataSet([[0.0, 1.0], [0.0, 2.0]])
        assert total_error(f, Subspace(2, [[1.0, 0.0]])) == pytest.approx(5.0)

    def test_contained_data(self):
        f = DataSet([[1.0, 1.0], [-2.0, -2.0]])
        v = Subspace(2, [[1.0 / SQ2, 1.0 / SQ2]])
        assert total_error(f, v) <= 1e-18


class TestBestFit:
    def test_rank_one_data(self):
        f = DataSet([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        fit = best_fit_subspace(f, 1)
        assert fit.error <= 1e-12
        assert np.allclose(np.abs(fit.subspace.basis), [[1.0, 0.0]], atol=1e-10)

    def test_two_points_by_hand(self):
        # Gram eigenvalues {9, 1}; the trailing sum is 1
        f = DataSet([[3.0, 0.0], [0.0, 1.0]])
        fit = best_fit_subspace(f, 1)
        assert fit.error == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(np.abs(fit.subspace.basis), [[1.0, 0.0]], atol=1e-8)
        assert np.allclose(fit.spectrum, [9.0, 1.0])

    def test_degenerate_spectrum(self):
        # Gram is 2 * identity: error 2 for any line, flagged degenerate
        f = DataSet([[1.0, 1.0], [1.0, -1.0]])
        fit = best_fit_subspace(f, 1)
        assert fit.error == pytest.approx(2.0, rel=1e-12)
        assert fit.degenerate
        again = best_fit_subspace(f, 1)
        assert fit.subspace.basis.tobytes() == again.subspace.basis.tobytes()

    def test_empty_dataset(self):
        fit = best_fit_subspace(DataSet(np.zeros((0, 3))), 2)
        assert fit.subspace.dim == 0
        assert fit.error == 0.0

    def test_no_data_no_dimensions(self):
        fit = best_fit_subspace(DataSet([]), 2)
        assert (fit.subspace.ambient_dim, fit.subspace.dim) == (0, 0)
        assert fit.error == 0.0
        assert fit.spectrum.shape == (0,)
        assert not fit.degenerate

    @pytest.mark.parametrize("sizes", [(0, 3, 0, 5, 1), (2, 0), (0, 4), (0, 0, 6)])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_stack_empty_blocks_fit_nothing(self, sizes, n):
        # an empty block gets rank 0 and error 0; a nonempty one gets the
        # bits of its own one-block fit, trailing rows included
        rng = np.random.default_rng(sum(sizes) + n)
        x = rng.standard_normal((sum(sizes), 4))
        bounds = np.cumsum((0,) + sizes)
        blocks = [x[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        rows, rank, _, error, degenerate = best_fit_stack(blocks, n)
        assert rows.shape == (len(blocks), 4, 4) and len(rank) == len(blocks)
        for g, block in enumerate(blocks):
            if block.shape[0]:
                rows1, rank1, _, error1, degenerate1 = best_fit_stack([block], n)
                assert rank[g] == rank1[0]
                assert rows[g].tobytes() == rows1[0].tobytes()
                assert error[g].hex() == error1[0].hex()
                assert degenerate[g] == degenerate1[0]
            else:
                assert rank[g] == 0
                assert error[g] == 0.0
                assert not degenerate[g]

    def test_rank_deficient_returns_smaller_dim(self):
        f = DataSet([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        fit = best_fit_subspace(f, 2)
        assert fit.subspace.dim == 1

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_round_off_directions_are_not_rank(self, scale):
        # collinear and coplanar cells: LAPACK's null eigenvalues sit near
        # 1e-16 of the top one and must not add basis directions
        rng = np.random.default_rng(8)
        for _ in range(20):
            line = np.outer(rng.standard_normal(3), rng.standard_normal(5))
            assert best_fit_subspace(DataSet(scale * line), 2).subspace.dim == 1
            plane = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 6))
            assert best_fit_subspace(DataSet(scale * plane), 4).subspace.dim == 2

    def test_dim_never_exceeds_point_count(self):
        # the covariance's N - m null eigenvalues are round-off, not rank
        rng = np.random.default_rng(15)
        for m in range(1, 5):
            fit = best_fit_subspace(random_dataset(rng, m, 9), 6)
            assert fit.subspace.dim == m

    def test_n_zero(self):
        f = DataSet([[1.0, 2.0], [3.0, 4.0]])
        fit = best_fit_subspace(f, 0)
        assert fit.subspace.dim == 0
        assert fit.error == pytest.approx(np.sum(f.vectors**2))

    def test_error_formula_identity_200(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 13))
            dim = int(rng.integers(1, 9))
            n = int(rng.integers(0, 5))
            f = random_dataset(rng, m, dim)
            fit = best_fit_subspace(f, n)
            direct = total_error(f, fit.subspace)
            assert close_rel(direct, fit.error, 1e-9, floor=1e-12)

    def test_optimality_oracle_random_lines(self):
        # independent check of optimality at n = 1: no sampled line does better
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            dim = int(rng.integers(2, 5))
            f = random_dataset(rng, m, dim)
            fit = best_fit_subspace(f, 1)
            for _ in range(1000):
                g = rng.standard_normal(dim)
                g /= np.linalg.norm(g)
                competitor = total_error(f, Subspace(dim, g[None, :]))
                assert fit.error <= competitor + 1e-9

    def test_gram_vs_covariance_routes_agree(self):
        rng = np.random.default_rng(13)
        wide = random_dataset(rng, 12, 4)   # m > N: spectrum zero-padded to m
        tall = DataSet(wide.vectors[:4])    # m <= N: spectrum cut to m
        for data in (wide, tall):
            fit = best_fit_subspace(data, 2)
            assert close_rel(total_error(data, fit.subspace), fit.error, 1e-9, floor=1e-12)
            assert fit.spectrum.size == data.m

    def test_spectrum_matches_lapack(self):
        rng = np.random.default_rng(14)
        for m in (6, 9, 14):  # m < N, m = N, m > N
            f = random_dataset(rng, m, 9)
            fit = best_fit_subspace(f, 2)
            assert fit.spectrum.size == m
            ref = np.sort(np.linalg.eigvalsh(f.vectors @ f.vectors.T))[::-1]
            assert np.max(np.abs(fit.spectrum - ref)) <= 1e-9 * max(1.0, ref[0])


class TestSpan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 10), dim=st.integers(1, 8), r=st.integers(1, 8),
           k=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
    def test_generic_rows_span_their_rank(self, rows, dim, r, k, seed):
        r = min(r, rows, dim)
        rng = np.random.default_rng(seed)
        x = np.ldexp(rng.standard_normal((rows, r)) @ rng.standard_normal((r, dim)), k)
        sub = Subspace.span(x)
        assert sub.dim == r
        norms = np.einsum("ij,ij->i", x, x)
        assert np.all(residuals_sq(DataSet(x), sub) <= 16 * dim * EPS * norms)

    @pytest.mark.parametrize("shape", [(1, 3), (4, 2), (0, 5)])
    def test_zero_rows_span_the_zero_subspace(self, shape):
        sub = Subspace.span(np.zeros(shape))
        assert sub.dim == 0 and sub.ambient_dim == shape[1]

    def test_single_row(self):
        sub = Subspace.span([3.0, 0.0, -4.0])
        assert np.allclose(np.abs(sub.basis), [[0.6, 0.0, 0.8]], atol=1e-15)
