import numpy as np
import pytest

from uosfit import DimensionMismatch, NonFinite, NonSymmetric, sym_eigen


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
        with pytest.raises(NonSymmetric):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            sym_eigen(np.zeros((2, 3)))

    def test_psd_clamp(self):
        e = sym_eigen(np.array([[-5e-13]]))
        assert e.eigenvalues[0] == 0.0

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
