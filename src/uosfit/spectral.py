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


def _fix_phases(rows):
    """Make the largest-magnitude component of each eigenvector real-positive,
    in place on a C-contiguous stack whose rows are the eigenvectors.

    The pivot is the first index of the largest magnitude in each row.
    """
    k = rows.shape[-1]
    stack = rows.reshape(-1, k, k)
    j = np.abs(stack).argmax(axis=2)
    pivot = stack[np.arange(len(stack))[:, None], np.arange(k), j][:, :, None]
    # Unit rows: the pivot's magnitude is at least 1/sqrt(k).  A real pivot
    # gives exactly -1.0 or 1.0: the same bits as negating or keeping the row.
    np.multiply(stack, np.conj(pivot) / np.abs(pivot), out=stack)


def sym_eigen(mat):
    """Eigendecompose symmetric (or Hermitian) matrices.

    Parameters
    ----------
    mat : (k, k) or (..., k, k) array_like
        Real symmetric or complex Hermitian matrix, or a stack of them; a
        stack is decomposed in one call, matrix by matrix.  Eigenvalues are
        LAPACK's, round-off negatives of a PSD matrix included.  A real
        stack that is bitwise symmetric goes to LAPACK as it is; any other
        goes as ``mat / 2 + mat^H / 2``, which never overflows and has the
        bits of ``(mat + mat^H) / 2`` wherever no half is subnormal.

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
    # For a real array conj() returns the array itself.
    herm = a.swapaxes(-1, -2).conj()
    # A real stack that is bitwise symmetric is its own exact hermitization,
    # at any magnitude: pass it on as it is.  Bits, not values: hermitizing
    # turns a -0.0 mirrored by a 0.0 into 0.0.
    if not (a.dtype == np.float64 and a.tobytes() == herm.tobytes()):
        scale = np.abs(a).max(axis=(-2, -1))
        # In halves, whose difference and sum are at most max|mat|: no overflow.
        half, mirror = a * 0.5, herm * 0.5
        asym = np.abs(half - mirror).max(axis=(-2, -1))
        if (asym > 0.5 * SYMMETRY_TOL * scale).any():
            raise NonSymmetric(f"half-asymmetry {float(np.max(asym)):.3e} exceeds tolerance")
        dtype = np.complex128 if np.iscomplexobj(a) else np.float64
        # Hermitizing removes the (tolerated) asymmetry.  The sum of the
        # halves equals the halved sum (a + herm) / 2 wherever no half is
        # subnormal: then both round the same exact mean once.
        a = (half + mirror).astype(dtype, copy=False)
    vals, vecs = np.linalg.eigh(a)
    # Eigenvectors as contiguous rows, descending: the pivot search runs
    # along rows, and a caller that wants basis rows gets them as a view.
    rows = np.ascontiguousarray(vecs.swapaxes(-1, -2)[..., ::-1, :])
    _fix_phases(rows)
    vals, vecs = vals[..., ::-1], rows.swapaxes(-1, -2)
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return SymmetricEigen(eigenvalues=vals, eigenvectors=vecs)


def leading_cut(vals, m, n):
    """The best model of dimension <= n from each of G groups of descending
    spectra.

    ``vals`` is a (G, K, d) stack: group g holds K spectra of matrices whose
    nonzero eigenvalues are those of an m[g] x m[g] Gramian, and ``m`` gives
    the G point counts.  Per group, returns the spectra clamped at 0 and cut
    or zero-padded to (K, m[g]), padded further to the largest count; the
    rank of each spectrum, the eigenvalues above the group's round-off floor
    ``max(m[g], d) * eps * top`` (top: the group's largest eigenvalue)
    capped at n; the error, everything beyond the n-th; and ``degenerate``:
    the gap at the cut is at most ``DEGENERACY_TOL * top`` for a spectrum
    whose n-th eigenvalue is above the floor.  Error and flag are (G,)
    arrays.

    Each group's error is summed over its own (K, m[g]) spectra, so a
    group's results do not depend on the other groups of the stack.
    """
    vals = np.asarray(vals)
    num_groups, num, d = vals.shape
    counts = np.asarray(m, dtype=np.intp)
    width = int(counts.max(initial=0))
    k = min(width, d)
    spectrum = np.zeros((num_groups, num, width))
    inside = (np.arange(k) < counts[:, None])[:, None, :]
    np.maximum(vals[:, :, :k], 0.0, out=spectrum[:, :, :k], where=inside)
    spectrum.flags.writeable = False
    top = spectrum[:, :, :1].max(axis=(1, 2), initial=0.0)
    floor = (np.maximum(counts, d) * _EPS * top)[:, None]
    # Past a group's own min(m, d) the spectra are zeros, never above floor.
    rank = (spectrum[:, :, :min(n, width)] > floor[:, :, None]).sum(axis=-1)
    cut = counts > n
    # At n = 0 a group's whole (K, m[g]) block is summed as one contiguous
    # run, as a copy of it alone would be; past a cut, row by row.
    tails = (spectrum[g, :, n:count] if n else np.ascontiguousarray(spectrum[g, :, :count])
             for g, count in enumerate(counts.tolist()) if count > n)
    error = np.zeros(num_groups)
    error[cut] = [np.add.reduce(tail, axis=None) for tail in tails]
    degenerate = np.zeros(num_groups, dtype=bool)
    if 0 < n < width:
        # Above the floor, descending order makes the gap nonnegative.
        lead = spectrum[:, :, n - 1]
        gap = lead - spectrum[:, :, n] <= DEGENERACY_TOL * top[:, None]
        degenerate = cut & ((lead > floor) & gap).any(axis=1)
    return spectrum, rank, error, degenerate
