"""Dense Hermitian eigendecomposition with a fixed output convention.

``sym_eigen`` is a thin wrapper over LAPACK (``numpy.linalg.eigh``) that
validates its input, orders the eigenvalues descending and fixes each
eigenvector's phase.  Identical inputs give bit-identical outputs on the same
numpy/LAPACK build with the same BLAS thread count; across builds, results
agree to round-off (about 1e-14 relative on the solver objectives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSymmetric

# Thresholds, each a fraction of a scale read off the data it judges.  The
# data energy (sum of squared norms) is the zero model's error.
STOP_TOL = 1e-12  # of the energy: gamma's gap to the nearest error at a fixed point
EXACT_TOL = 1e-10  # of the energy: the epsilon of an exact sparsity certificate
SYMMETRY_TOL = 1e-12  # of the largest entry: the asymmetry sym_eigen accepts
DEGENERACY_TOL = 1e-10  # of the top eigenvalue: the cut gap of a non-unique optimum
ORTHONORMAL_TOL = 1e-10  # of 1: a basis Gram matrix's largest deviation from I
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class SymmetricEigen:
    """Full eigendecomposition of a symmetric/Hermitian matrix (or a stack).

    ``eigenvalues[..., k]`` is sorted descending in k; ``eigenvectors[..., :, k]``
    is the unit eigenvector paired with ``eigenvalues[..., k]``.  The columns
    are pairwise orthonormal and each has its largest-magnitude component made
    real and positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vecs):
    """Make the largest-magnitude component of each column real-positive.

    The pivot is the first row index of the largest magnitude in each column.
    """
    k = vecs.shape[-1]
    stack = vecs.reshape(-1, k, k)
    j = np.abs(stack).argmax(axis=1)
    pivot = stack[np.arange(len(stack))[:, None], j, np.arange(k)]
    pivot = pivot.reshape(vecs.shape[:-2] + (1, k))
    if np.iscomplexobj(vecs):
        # Unit columns: the pivot's magnitude is at least 1/sqrt(k).
        return vecs * (np.conj(pivot) / np.abs(pivot))
    return np.where(pivot < 0.0, -vecs, vecs)


def sym_eigen(mat):
    """Eigendecompose symmetric (or Hermitian) matrices.

    Parameters
    ----------
    mat : (k, k) or (..., k, k) array_like
        Real symmetric or complex Hermitian matrix, or a stack of them; a
        stack is decomposed in one call, matrix by matrix.  Eigenvalues are
        LAPACK's, round-off negatives of a PSD matrix included.

    Returns
    -------
    SymmetricEigen

    Raises
    ------
    NonSymmetric
        If the asymmetry of any matrix exceeds ``SYMMETRY_TOL * max|mat|``.
    NonFinite
        If any entry is NaN or infinite.
    """
    a = np.asarray(mat)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("matrix contains NaN or infinite entries")

    is_complex = np.iscomplexobj(a)
    herm = a.swapaxes(-1, -2).conj() if is_complex else a.swapaxes(-1, -2)
    scale = np.abs(a).max(axis=(-2, -1))
    asym = np.abs(a - herm).max(axis=(-2, -1))
    if (asym > SYMMETRY_TOL * scale).any():
        raise NonSymmetric(f"asymmetry {float(np.max(asym)):.3e} exceeds tolerance")

    dtype = np.complex128 if is_complex else np.float64
    # Exact hermitization removes the (tolerated) asymmetry.
    vals, vecs = np.linalg.eigh(((a + herm) / 2.0).astype(dtype, copy=False))
    vals = vals[..., ::-1]
    vecs = _fix_phases(vecs[..., ::-1])
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SymmetricEigen(eigenvalues=vals, eigenvectors=vecs)


def leading_cut(vals, m, n):
    """The best model of dimension <= n from K descending spectra ``vals`` (K, d)
    of matrices whose nonzero eigenvalues are those of an m x m Gramian.

    Returns the spectra clamped at 0 and cut or zero-padded to (K, m); the
    rank of each, the eigenvalues above the round-off floor ``max(m, d) * eps
    * top`` (top: the largest in the stack) capped at n; the error, everything
    beyond the n-th; and ``degenerate``: the gap at the cut is at most
    ``DEGENERACY_TOL * top`` for a matrix whose n-th eigenvalue is above it.
    """
    num, d = vals.shape
    k = min(m, d)
    spectrum = np.zeros((num, m))
    np.maximum(vals[:, :k], 0.0, out=spectrum[:, :k])
    spectrum.flags.writeable = False
    top = float(spectrum[:, 0].max()) if k else 0.0
    floor = max(m, d) * _EPS * top
    rank = (spectrum[:, :min(n, k)] > floor).sum(axis=1)
    if n >= m:
        return spectrum, rank, 0.0, False
    error = float(spectrum[:, n:].sum())
    # Above the floor, descending order makes the gap nonnegative.
    lead = spectrum[:, n - 1]
    degenerate = n > 0 and ((lead > floor) & (lead - spectrum[:, n] <= DEGENERACY_TOL * top)).any()
    return spectrum, rank, error, bool(degenerate)
