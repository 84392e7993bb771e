"""Dense Hermitian eigendecomposition with a fixed output convention.

``sym_eigen`` is a thin wrapper over LAPACK (``numpy.linalg.eigh``) that
validates its input, clamps round-off negatives of PSD matrices, orders the
eigenvalues descending and fixes each eigenvector's phase.  Identical inputs
give bit-identical outputs on the same numpy/LAPACK build with the same BLAS
thread count; across builds, results agree to round-off (about 1e-14
relative on the solver objectives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NonSymmetric

# Eigenvalues in [-PSD_CLAMP, 0) are treated as exact zeros.
PSD_CLAMP = 1e-12

# Relative gap at the cut below which the optimal model is not unique.
DEGENERACY_TOL = 1e-10
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
    """Make the largest-magnitude component of each column real-positive."""
    j = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, j, axis=-2)
    if np.iscomplexobj(vecs):
        # Unit columns: the pivot's magnitude is at least 1/sqrt(k).
        return vecs * (np.conj(pivot) / np.abs(pivot))
    return np.where(pivot < 0.0, -vecs, vecs)


def sym_eigen(mat):
    """Eigendecompose symmetric (or Hermitian) positive-semidefinite matrices.

    Parameters
    ----------
    mat : (k, k) or (..., k, k) array_like
        Real symmetric or complex Hermitian matrix, or a stack of them; a
        stack is decomposed in one call, matrix by matrix.  Eigenvalues in
        ``[-PSD_CLAMP, 0)`` are round-off of a PSD matrix and come out as 0.

    Returns
    -------
    SymmetricEigen

    Raises
    ------
    NonSymmetric
        If the asymmetry of any matrix exceeds ``1e-12 * max(1, max|mat|)``.
    NonFinite
        If any entry is NaN or infinite.
    """
    a = np.asarray(mat)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or infinite entries")

    herm = a.conj().swapaxes(-1, -2)
    scale = np.max(np.abs(a), axis=(-2, -1))
    asym = np.max(np.abs(a - herm), axis=(-2, -1))
    if np.any(asym > 1e-12 * np.maximum(1.0, scale)):
        raise NonSymmetric(f"asymmetry {float(np.max(asym)):.3e} exceeds tolerance")

    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    # Exact hermitization removes the (tolerated) asymmetry.
    vals, vecs = np.linalg.eigh(((a + herm) / 2.0).astype(dtype))
    vals = vals[..., ::-1].copy()
    vals[(vals < 0.0) & (vals >= -PSD_CLAMP)] = 0.0
    vecs = _fix_phases(vecs[..., ::-1])
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SymmetricEigen(eigenvalues=vals, eigenvectors=vecs)


def leading_cut(vals, m, n):
    """The best model of dimension <= n from K descending spectra ``vals`` (K, d)
    of matrices whose nonzero eigenvalues are those of an m x m Gramian.

    Returns the spectra cut or zero-padded to (K, m); the rank of each, the
    eigenvalues above the round-off floor ``max(m, d) * eps * top`` (top: the
    largest in the stack) capped at n; the error, everything beyond the n-th;
    and ``degenerate``: the gap at the cut is at most ``DEGENERACY_TOL * top``
    for a matrix whose n-th eigenvalue is above the floor.
    """
    num, d = vals.shape
    k = min(m, d)
    spectrum = np.zeros((num, m))
    spectrum[:, :k] = vals[:, :k]
    spectrum.flags.writeable = False
    top = float(vals[:, 0].max()) if k else 0.0
    floor = max(m, d) * _EPS * top
    rank = (spectrum[:, :min(n, k)] > floor).sum(axis=1)
    if n >= m:
        return spectrum, rank, 0.0, False
    error = max(float(spectrum[:, n:].sum()), 0.0)
    # Above the floor, descending order makes the gap nonnegative.
    lead = spectrum[:, n - 1]
    degenerate = n > 0 and ((lead > floor) & (lead - spectrum[:, n] <= DEGENERACY_TOL * top)).any()
    return spectrum, rank, error, bool(degenerate)
