"""Data sets, linear subspaces, projections, and the best-fit subspace.

The best-fit routine realises the classical least-squares optimum over all
subspaces of dimension at most ``n``: the span of the top left singular
vectors of the data matrix, with the fitting error given exactly by the
trailing eigenvalues of the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .spectral import ORTHONORMAL_TOL, leading_cut, sym_eigen


@dataclass(frozen=True)
class DataSet:
    """An ordered collection of m vectors of shared ambient dimension N.

    ``vectors`` is stored as an (m, N) read-only array; rows are the data
    points.  ``labels`` optionally names each row.
    """

    vectors: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        arr = np.asarray(self.vectors)
        if arr.ndim == 1:
            arr = arr.reshape(0, 0) if arr.size == 0 else arr.reshape(1, -1)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected 2-d data, got shape {arr.shape}")
        if not np.iscomplexobj(arr):
            arr = arr.astype(np.float64)
        else:
            arr = arr.astype(np.complex128)
        if not np.all(np.isfinite(arr)):
            raise NonFinite("data contains NaN or infinite entries")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "vectors", arr)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != arr.shape[0]:
                raise DimensionMismatch("labels and vectors disagree in length")
            object.__setattr__(self, "labels", labels)

    @property
    def m(self):
        return self.vectors.shape[0]

    @property
    def ambient_dim(self):
        return self.vectors.shape[1]

    def subset(self, indices) -> "DataSet":
        """The rows at a flat index array, as a read-only data set.

        The rows come from already-checked data, so the new set skips the
        finiteness scan, cast and copy of ``__post_init__``.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1:
            raise DimensionMismatch(f"subset indices must be 1-d, got shape {idx.shape}")
        rows = self.vectors.take(idx, axis=0)
        rows.flags.writeable = False
        out = object.__new__(DataSet)
        object.__setattr__(out, "vectors", rows)
        object.__setattr__(
            out, "labels", None if self.labels is None else tuple(self.labels[i] for i in idx)
        )
        return out

    def norms_sq(self) -> np.ndarray:
        v = self.vectors
        return np.real(np.einsum("ij,ij->i", v, v.conj()))


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of R^N given by orthonormal basis rows.

    ``basis`` has shape (dim, N); shape (0, N) encodes the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"basis shape {b.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        if b.shape[0] > self.ambient_dim:
            raise DimensionMismatch("more basis vectors than ambient dimensions")
        if not np.all(np.isfinite(b)):
            raise NonFinite("basis contains NaN or infinite entries")
        if b.shape[0]:
            gram = b @ b.T
            if np.max(np.abs(gram - np.eye(b.shape[0]))) > ORTHONORMAL_TOL:
                raise DimensionMismatch("basis rows are not orthonormal")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[0]

    @classmethod
    def zero(cls, ambient_dim) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim)))

    @classmethod
    def span(cls, rows) -> "Subspace":
        """Subspace spanned by the given rows: their best fit at full dimension,
        so directions within round-off of zero (``spectral.leading_cut``) drop."""
        data = DataSet(rows)
        return best_fit_subspace(data, data.m).subspace


@dataclass(frozen=True)
class SubspaceFit:
    """Best-fit result: the subspace, its exact error, and the Gram spectrum."""

    subspace: Subspace
    error: float
    spectrum: np.ndarray
    degenerate: bool


def _check_vector(sub, f):
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (sub.ambient_dim,):
        raise DimensionMismatch(
            f"vector of shape {f.shape} vs ambient dim {sub.ambient_dim}"
        )
    return f


def project(sub: Subspace, f) -> np.ndarray:
    """Orthogonal projection of ``f`` onto the subspace: sum of <f, u_i> u_i."""
    f = _check_vector(sub, f)
    return sub.basis.T @ (sub.basis @ f)


def dist_sq(sub: Subspace, f) -> float:
    """Squared distance ||f - P f||^2 from ``f`` to the subspace."""
    f = _check_vector(sub, f)
    res = f - sub.basis.T @ (sub.basis @ f)
    return float(res @ res)


# The distance kernel walks the points in blocks of about this many bytes,
# so a block's columns and residual stay in cache and its buffers stay small.
_BLOCK_BYTES = 1 << 18


def residual_rows(x, bases) -> np.ndarray:
    """(l, m) squared distances of the m rows of ``x`` to l subspaces.

    ``bases`` holds one (dim, N) orthonormal basis per subspace.  Each block
    of points is copied once as contiguous columns, and each subspace writes
    its slice of one contiguous result row from the explicit residual
    ``x - P x`` (exact zeros for points in the subspace, unlike
    ``|x|^2 - |Bx|^2``).
    """
    m, dim = x.shape
    out = np.empty((len(bases), m), dtype=x.dtype)
    step = max(1, _BLOCK_BYTES // (x.itemsize * max(dim, 1)))
    # Flat buffers, so a short last block is contiguous as well.
    xt, r = np.empty((2, dim * min(step, m)), dtype=x.dtype)
    for start in range(0, m, step):
        stop = min(start + step, m)
        xb = xt[:dim * (stop - start)].reshape(dim, stop - start)
        rb = r[:xb.size].reshape(xb.shape)
        np.copyto(xb, x[start:stop].T)
        for row, basis in zip(out, bases):
            np.matmul(basis.T, basis @ xb, out=rb)
            np.subtract(xb, rb, out=rb)
            np.einsum("km,km->m", rb, rb, out=row[start:stop])
    return out


def residuals_sq(dataset: DataSet, sub: Subspace) -> np.ndarray:
    """Per-point squared distances of a data set to one subspace."""
    if dataset.ambient_dim != sub.ambient_dim:
        raise DimensionMismatch(
            f"data dim {dataset.ambient_dim} vs subspace dim {sub.ambient_dim}"
        )
    return residual_rows(dataset.vectors, [sub.basis])[0]


def total_error(dataset: DataSet, sub: Subspace) -> float:
    """Sum of squared distances of all points to the subspace; 0 when empty."""
    if dataset.m == 0:
        return 0.0
    return float(residuals_sq(dataset, sub).sum())


def best_fit_subspace(dataset: DataSet, n) -> SubspaceFit:
    """Optimal subspace of dimension <= n for the data, with exact error.

    The span of the top ``min(n, rank)`` left singular vectors of the matrix
    whose columns are the data.  The returned error is the sum of the Gram
    eigenvalues beyond the n-th, which equals ``total_error`` on the result.
    Rank, error and the ``degenerate`` flag (the optimum is not unique)
    come from ``spectral.leading_cut``, as in ``sis.best_sis``.

    An empty data set yields the zero subspace with error 0.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if np.iscomplexobj(dataset.vectors):
        raise DimensionMismatch("best_fit_subspace expects real-valued data")
    m, dim = dataset.m, dataset.ambient_dim
    if m == 0:
        return SubspaceFit(Subspace.zero(dim), 0.0, np.zeros(0), False)

    x = dataset.vectors  # rows are data points; the data matrix A is x.T
    # Eigenvectors of the N x N covariance A A^T are the left singular
    # vectors of A; its nonzero eigenvalues are those of the m x m Gram A^T A.
    # The rank is read off the Gram spectrum, so it never exceeds m.
    eig = sym_eigen(x.T @ x)
    spectrum, rank, error, degenerate = leading_cut(eig.eigenvalues[None, :], m, n)
    basis = eig.eigenvectors[:, :rank[0]].T.copy()  # contiguous: Subspace checks it faster
    return SubspaceFit(Subspace(dim, basis), error, spectrum[0], degenerate)
