import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uosfit import (
    DataSet,
    DimensionMismatch,
    NonFinite,
    NonSymmetric,
    ShiftStructure,
    best_fit_subspace,
    best_sis,
    sym_eigen,
)
from uosfit.spectral import leading_cut

from helpers import reference_sym_eigen


class TestSymEigen:
    def test_diagonal(self):
        e = sym_eigen(np.diag([3.0, 1.0]))
        assert np.allclose(e.eigenvalues, [3.0, 1.0])
        assert np.allclose(np.abs(e.eigenvectors), np.eye(2), atol=1e-12)

    def test_degenerate_identity_multiple(self):
        m = np.array([[2.0, 0.0], [0.0, 2.0]])
        e1 = sym_eigen(m)
        e2 = sym_eigen(m)
        assert np.allclose(e1.eigenvalues, [2.0, 2.0])
        # sign convention forces deterministic output on the degenerate case
        assert e1.eigenvectors.tobytes() == e2.eigenvectors.tobytes()
        assert np.allclose(e1.eigenvectors.conj().T @ e1.eigenvectors, np.eye(2), atol=1e-10)

    def test_two_by_two_by_hand(self):
        # characteristic polynomial of diag(9, 1): roots 9 and 1
        e = sym_eigen(np.array([[9.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(e.eigenvalues, [9.0, 1.0])

    def test_hermitian_by_hand(self):
        # det([[2-x, i], [-i, 2-x]]) = (2-x)^2 - 1: roots 3 and 1
        m = np.array([[2.0, 1j], [-1j, 2.0]])
        e = sym_eigen(m)
        assert np.allclose(e.eigenvalues, [3.0, 1.0], atol=1e-12)
        rec = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.conj().T
        assert np.allclose(rec, m, atol=1e-12)

    def test_rejects_nonsymmetric(self):
        # the tolerance is relative to the largest entry, at any scale
        for scale in (1.0, 1e-20, 1e20):
            with pytest.raises(NonSymmetric):
                sym_eigen(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))
            sym_eigen(scale * np.array([[1.0, 2.0 + 1e-13], [2.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            sym_eigen(np.zeros((2, 3)))

    def test_returns_lapack_negatives(self):
        # no clamp: a PSD matrix's round-off negatives come out as LAPACK
        # returns them, at any scale
        for c in (1.0, 1e-20, 1e20):
            e = sym_eigen(np.array([[-5e-13 * c]]))
            assert e.eigenvalues[0] == -5e-13 * c
        m = np.ones((3, 3)) * 1e6
        assert sym_eigen(m).eigenvalues.tolist() == np.linalg.eigh(m)[0][::-1].tolist()

    def test_random_psd_reconstruction_and_trace(self):
        rng = np.random.default_rng(101)
        for trial in range(500):
            n = int(rng.integers(1, 21))
            if trial % 3 == 0:
                b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m = b @ b.conj().T
            else:
                b = rng.standard_normal((n, n))
                m = b @ b.T
            m = (m + m.conj().T) / 2
            e = sym_eigen(m)
            assert np.all(np.diff(e.eigenvalues) <= 0)
            gram = e.eigenvectors.conj().T @ e.eigenvectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-10
            rec = (e.eigenvectors * e.eigenvalues) @ e.eigenvectors.conj().T
            denom = max(np.linalg.norm(m), 1e-15)
            assert np.linalg.norm(rec - m) / denom <= 1e-9
            trace = float(np.real(np.trace(m)))
            assert abs(e.eigenvalues.sum() - trace) <= 1e-9 * max(abs(trace), 1e-15)

    def test_matches_lapack_eigenvalues(self):
        # independent oracle: library eigensolver on the same matrices
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            b = rng.standard_normal((n, n))
            m = b @ b.T
            ours = sym_eigen(m).eigenvalues
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(ours - ref)) <= 1e-9 * max(1.0, ref[0])

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((9, 9))
        m = b @ b.T
        e1, e2 = sym_eigen(m), sym_eigen(m)
        assert e1.eigenvalues.tobytes() == e2.eigenvalues.tobytes()
        assert e1.eigenvectors.tobytes() == e2.eigenvectors.tobytes()

    @pytest.mark.parametrize("complex_stack", [False, True])
    def test_stack_matches_per_matrix_calls(self, complex_stack):
        rng = np.random.default_rng(17)
        b = rng.standard_normal((6, 5, 5))
        if complex_stack:
            b = b + 1j * rng.standard_normal((6, 5, 5))
        stack = b @ b.conj().transpose(0, 2, 1)
        e = sym_eigen(stack)
        assert e.eigenvalues.shape == (6, 5) and e.eigenvectors.shape == (6, 5, 5)
        for k in range(stack.shape[0]):
            one = sym_eigen(stack[k])
            assert np.max(np.abs(e.eigenvalues[k] - one.eigenvalues)) <= 1e-12
            assert np.max(np.abs(e.eigenvectors[k] - one.eigenvectors)) <= 1e-12
        # phase convention: each column's largest-magnitude entry is real-positive
        j = np.argmax(np.abs(e.eigenvectors), axis=-2)[..., None, :]
        pivot = np.take_along_axis(e.eigenvectors, j, axis=-2)
        assert np.all(pivot.real > 0.0)
        assert np.max(np.abs(pivot.imag)) <= 1e-15

    def test_stack_rejects_one_nonsymmetric_member(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])])
        with pytest.raises(NonSymmetric):
            sym_eigen(stack)


def assert_same_as_reference(mat):
    e = sym_eigen(mat)
    vals, vecs = reference_sym_eigen(mat)
    for got, want in ((e.eigenvalues, vals), (e.eigenvectors, vecs)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    return e


def _symmetric(rng, shape, k, complex_, entries):
    a = rng.integers(-entries, entries + 1, size=shape + (k, k)).astype(float)
    if complex_:
        a = a + 1j * rng.integers(-entries, entries + 1, size=shape + (k, k))
    return a + a.conj().swapaxes(-1, -2)


class TestSymEigenMatchesReference:
    """Bitwise agreement with the unfused checks and ``take_along_axis`` pivots."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.integers(1, 7), shape=st.sampled_from([(), (1,), (4,), (2, 3)]),
           complex_=st.booleans(), entries=st.sampled_from([1, 2, 1000]),
           seed=st.integers(0, 2**32 - 1))
    def test_small_integer_matrices(self, k, shape, complex_, entries, seed):
        # Small integer entries make repeated eigenvalues and pivot ties common.
        assert_same_as_reference(_symmetric(np.random.default_rng(seed), shape, k, complex_, entries))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(k=st.integers(1, 5), shape=st.sampled_from([(), (1,), (4,), (2, 3)]),
           complex_=st.booleans(), e=st.integers(-1000, 1000), seed=st.integers(0, 2**32 - 1))
    def test_hermitized_stacks_at_any_scale(self, k, shape, complex_, e, seed):
        # Real stacks carry a tolerated asymmetry in one mirrored pair
        # (relative 2^-42, exact on these integers) and complex ones are
        # Hermitian, so nearly all take the hermitizing route.  Scaled by
        # 2^e, every nonzero entry is at least 2^-1000: no half is subnormal.
        a = _symmetric(np.random.default_rng(seed), shape, k, complex_, 1000)
        if not complex_:
            a[..., -1, 0] *= 1.0 + 2.0**-42
        assert_same_as_reference(a * 2.0**e)

    @pytest.mark.parametrize("mat", [
        [[2.0, 1.0], [1.0, 2.0]],
        [[2.0, -1.0], [-1.0, 2.0]],
        [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 3.0]],
        [[2.0, 1j], [-1j, 2.0]],
        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]],
    ], ids=["plus", "minus", "3x3", "hermitian", "ones"])
    def test_equal_magnitude_pivot_ties(self, mat):
        e = assert_same_as_reference(np.array(mat))
        # the first row index of the largest magnitude is the real-positive one
        first = np.argmax(np.abs(e.eigenvectors) == np.abs(e.eigenvectors).max(axis=0), axis=0)
        pivots = e.eigenvectors[first, np.arange(len(mat))]
        assert np.all(pivots.real > 0.0)

    def test_round_off_negatives_pass_through(self):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        band = np.diag([1.0, -5e-13, -1e-12, -2e-12])
        e = assert_same_as_reference(band)
        assert e.eigenvalues.tolist() == [1.0, -5e-13, -1e-12, -2e-12]
        # a stack where only one member has negative eigenvalues
        rotated = q @ band @ q.T
        assert_same_as_reference(np.stack([np.eye(4), (rotated + rotated.T) / 2, np.diag([3.0, 2, 1, 0])]))

    @pytest.mark.parametrize("lower, upper", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)])
    def test_signed_zeros_in_mirrored_entries(self, lower, upper):
        # LAPACK reads the lower triangle, and on this matrix the sign of the
        # zero at [1, 0] changes its output bits.  Hermitizing turns -0.0
        # mirrored by 0.0 into 0.0, so such a stack is not passed on as it is.
        a = np.array([[4.0, upper, 4.0], [lower, -4.0, -1.0], [4.0, -1.0, -4.0]])
        assert_same_as_reference(a)
        assert_same_as_reference(np.stack([np.eye(3), a, a.T]))

    @pytest.mark.parametrize("diag", [0.0, -0.0])
    def test_hermitian_with_signed_zero_imaginary_diagonal(self, diag):
        a = np.array([[complex(2.0, diag), 1 + 1j, -0.5j],
                      [1 - 1j, complex(3.0, diag), 0.25],
                      [0.5j, 0.25, complex(1.0, -0.0)]])
        assert_same_as_reference(np.stack([a, a.real + 0j]))

    @pytest.mark.parametrize("complex_", [False, True])
    def test_asymmetry_inside_the_tolerance_is_hermitized(self, complex_):
        rng = np.random.default_rng(8)
        a = _symmetric(rng, (3,), 4, complex_, 1000)
        a[1, 0, 2] += 1e-10  # relative asymmetry about 1e-13, under SYMMETRY_TOL
        e = assert_same_as_reference(a)
        herm = (a + a.conj().swapaxes(-1, -2)) / 2.0
        assert e.eigenvalues.tobytes() == sym_eigen(herm).eigenvalues.tobytes()

    @pytest.mark.parametrize("mat, want", [
        ([[1.5e308, 0.0], [0.0, 1.0]], [1.5e308, 1.0]),
        ([[1.0, 1.7e308], [1.7e308, 1.0]], [1.7e308, -1.7e308]),
        ([[8.0e307, 2.0], [2.0, -8.0e307]], None),
    ], ids=["diagonal", "off-diagonal", "below-half"])
    def test_finite_entries_near_the_top_of_the_range(self, mat, want):
        # Above max/2 (about 8.99e307) the reference's hermitization overflows
        # to NaN.  These matrices are bitwise symmetric and go to LAPACK as
        # they are, so the spectrum, which is representable, stays finite.
        # The last case stays below max/2, where the reference agrees.
        if want is None:
            assert_same_as_reference(np.array(mat))
            return
        e = sym_eigen(np.array(mat))
        assert np.isfinite(e.eigenvalues).all() and np.isfinite(e.eigenvectors).all()
        assert np.allclose(e.eigenvalues, want, rtol=4 * np.finfo(np.float64).eps, atol=0.0)
        assert np.allclose(e.eigenvectors.T @ e.eigenvectors, np.eye(2), atol=1e-15)

    def test_best_fit_with_a_gram_entry_above_half_the_range(self):
        # x.T @ x holds 1.44e308 on its diagonal: the optimum leaves the
        # second axis out, at error 1.
        fit = best_fit_subspace(DataSet([[1.2e154, 0.0], [0.0, 1.0]]), 1)
        assert fit.error == 1.0
        assert np.abs(fit.subspace.basis).tolist() == [[1.0, 0.0]]

    def test_asymmetry_past_the_float_range_is_rejected(self):
        # The mirrored entries differ by more than the largest float: the
        # check must neither overflow nor report an infinite asymmetry.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonSymmetric, match=r"half-asymmetry 1\.700e\+308 "):
                sym_eigen(np.array([[1.0, 1.7e308], [-1.7e308, 1.0]]))

    def test_bitwise_symmetric_stacks_pass_at_any_scale(self):
        # One member of the stack is above half the float range, where the
        # reference's halved sum overflows.  The stack is bitwise symmetric,
        # so it goes to LAPACK as it is: the other member's subnormal
        # entries, which would round if halved, keep the reference's bits.
        tiny = np.array([[5e-324, 0.0], [0.0, 1.5e-323]])
        assert (tiny * 0.5 + tiny * 0.5).tolist() != tiny.tolist()
        big = np.array([[1.5e308, 0.0], [0.0, 1.0]])
        e = sym_eigen(np.stack([tiny, big]))
        assert e.eigenvalues[0].tobytes() == reference_sym_eigen(tiny)[0].tobytes()
        assert e.eigenvalues[1].tolist() == [1.5e308, 1.0]

    def test_hermitizing_in_halves_keeps_every_member_finite(self):
        # The stack is not bitwise symmetric, so it is hermitized as the sum
        # of its halves: the member above half the float range stays finite,
        # and the other member, whose halves are normal, keeps the
        # reference's bits.
        other = np.array([[2.0, 1.0 + 2.0**-50], [1.0, 3.0]])
        big = np.array([[1.5e308, 0.0], [0.0, 1.0]])
        e = sym_eigen(np.stack([other, big]))
        vals, vecs = reference_sym_eigen(other)
        assert e.eigenvalues[0].tobytes() == vals.tobytes()
        assert e.eigenvectors[0].tobytes() == vecs.tobytes()
        assert e.eigenvalues[1].tolist() == [1.5e308, 1.0]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_empty_stack(self, k, dtype):
        e = assert_same_as_reference(np.zeros((0, k, k), dtype=dtype))
        assert e.eigenvalues.shape == (0, k) and e.eigenvectors.shape == (0, k, k)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_cast_inputs(self, dtype):
        assert_same_as_reference(np.array([[4, 1, 0], [1, 3, 1], [0, 1, 2]], dtype=dtype))


def _one_group(vals, m, n):
    """``leading_cut`` of one group: a stack of one, read at group 0."""
    spectrum, rank, error, degenerate = leading_cut(np.asarray(vals)[None], [m], n)
    return spectrum[0], rank[0], float(error[0]), bool(degenerate[0])


class TestLeadingCut:
    def test_stack_by_hand(self):
        # top 4; the second matrix ties at the cut, so the optimum is not unique
        vals = np.array([[4.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        spectrum, rank, error, degenerate = _one_group(vals, 3, 1)
        assert spectrum.tolist() == vals.tolist() and not spectrum.flags.writeable
        assert rank.tolist() == [1, 1]
        assert error == 3.0
        assert degenerate

    def test_cut_and_pad_to_point_count(self):
        vals = np.array([[5.0, 3.0, 1.0]])
        assert _one_group(vals, 2, 1)[0].tolist() == [[5.0, 3.0]]
        assert _one_group(vals, 5, 1)[0].tolist() == [[5.0, 3.0, 1.0, 0.0, 0.0]]

    def test_rank_counts_above_round_off_and_caps_at_n(self):
        vals = np.array([[1.0, 1e-17, 0.0], [0.5, 0.25, 1e-15]])
        assert _one_group(vals, 3, 3)[1].tolist() == [1, 3]
        assert _one_group(vals, 3, 2)[1].tolist() == [1, 2]
        # the floor is relative to the largest eigenvalue of the whole stack
        assert _one_group(1e-300 * vals, 3, 3)[1].tolist() == [1, 3]

    @pytest.mark.parametrize("n", [1, 2])
    def test_no_degeneracy_below_the_floor(self, n):
        # rank 1 < n < m: the cut falls among zeros, and the fit is unique
        _, rank, error, degenerate = _one_group(np.array([[3.0, 0.0, 0.0]]), 3, n)
        assert rank.tolist() == [1] and error == 0.0 and not degenerate

    def test_round_off_negatives_are_zeroed(self):
        vals = np.array([[4.0, -1e-17, -2e-15], [1.0, 0.5, -3.0]])
        spectrum, rank, error, degenerate = _one_group(vals, 3, 1)
        assert spectrum.tolist() == [[4.0, 0.0, 0.0], [1.0, 0.5, 0.0]]
        assert rank.tolist() == [1, 1] and error == 0.5 and not degenerate
        # a spectrum of round-off alone is the zero spectrum: rank 0, error 0
        spectrum, rank, error, _ = _one_group(np.array([[-1e-17, -2e-15]]), 2, 1)
        assert spectrum.tolist() == [[0.0, 0.0]] and rank.tolist() == [0] and error == 0.0

    def test_n_at_least_m(self):
        assert _one_group(np.array([[2.0, 1.0]]), 2, 4)[2:] == (0.0, False)

    def test_empty(self):
        spectrum, rank, error, degenerate = _one_group(np.zeros((3, 2)), 0, 1)
        assert spectrum.shape == (3, 0) and rank.tolist() == [0, 0, 0]
        assert (error, degenerate) == (0.0, False)

    def test_each_group_has_its_own_floor(self):
        # in one group 1e-17 is round-off next to 1; alone, a group of
        # 1e-300-sized eigenvalues keeps them all
        vals = np.array([[[1.0, 1e-17, 0.0]], [[1e-300, 1e-301, 1e-302]]])
        spectrum, rank, error, degenerate = leading_cut(vals, [3, 3], 3)
        assert rank.tolist() == [[1], [3]]
        assert error.tolist() == [0.0, 0.0] and degenerate.tolist() == [False, False]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_a_stack_of_groups_is_cut_group_by_group(data):
    # every group's spectrum, rank, error bits and flag equal its own cut
    num, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    n = data.draw(st.integers(0, 6))
    counts = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    vals = rng.standard_normal((len(counts), num, d)) ** 2
    vals[rng.random(vals.shape) < 0.3] = 0.0  # exact zeros and ties
    vals = -np.sort(-vals, axis=-1)
    spectrum, rank, error, degenerate = leading_cut(vals, counts, n)
    for g, m in enumerate(counts):
        alone = _one_group(vals[g], m, n)
        assert np.array_equal(spectrum[g, :, :m], alone[0]) and not spectrum[g, :, m:].any()
        assert np.array_equal(rank[g], alone[1])
        assert error[g].hex() == alone[2].hex()
        assert degenerate[g] == alone[3]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=st.integers(1, 11), dim=st.integers(1, 8), r=st.integers(0, 8), n=st.integers(0, 8),
       k=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
def test_euclidean_and_one_frequency_sis_fits_share_the_cut(m, dim, r, n, k, seed):
    # With K = 1 (shift step = signal length) the SIS fit eigendecomposes a
    # unitary transform of the Euclidean covariance, so both fits see the
    # same spectrum up to round-off and must make the same cut.
    r, n = min(r, dim), min(n, dim)
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.standard_normal((m, r)) @ rng.standard_normal((r, dim)), k)
    data = DataSet(x)
    euc = best_fit_subspace(data, n)
    sis = best_sis(data, ShiftStructure(dim, dim), n)
    assert sis.model.per_freq_rank.tolist() == [euc.subspace.dim]
    assert sis.degenerate == euc.degenerate
    energy = float(np.sum(x * x))
    assert abs(sis.error - euc.error) <= 1e-9 * max(sis.error, euc.error) + 1e-12 * energy
