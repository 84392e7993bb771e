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
from .spectral import orthonormalize, sym_eigen

# Relative gap below which the optimal subspace is not unique.
DEGENERACY_TOL = 1e-10


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
        rows = self.vectors[idx]
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
            if np.max(np.abs(gram - np.eye(b.shape[0]))) > 1e-10:
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
        """Subspace spanned by the given (not necessarily orthonormal) rows."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return cls(rows.shape[1], orthonormalize(rows))


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


def residual_rows(x, bases) -> np.ndarray:
    """(l, m) squared distances of the m rows of ``x`` to l subspaces.

    ``bases`` holds one (dim, N) orthonormal basis per subspace.  The points
    are copied once as contiguous columns, and each subspace writes one
    contiguous row of the result from the explicit residual ``x - P x``
    (exact zeros for points in the subspace, unlike ``|x|^2 - |Bx|^2``).
    """
    xt = np.ascontiguousarray(x.T)
    out = np.empty((len(bases), x.shape[0]), dtype=x.dtype)
    for row, basis in zip(out, bases):
        r = basis.T @ (basis @ xt)
        np.subtract(xt, r, out=r)
        np.einsum("km,km->m", r, r, out=row)
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
    The ``degenerate`` flag is set when the spectral gap at the cut is below
    ``DEGENERACY_TOL`` relative to the top eigenvalue (the optimum is then
    not unique).

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
    vals = eig.eigenvalues
    spectrum = vals[:m] if m <= dim else np.concatenate([vals, np.zeros(m - dim)])
    # Eigenvalues within LAPACK's round-off of zero (about eps times the
    # largest, per unit of problem size) do not count towards the rank.
    floor = max(m, dim) * np.finfo(np.float64).eps * spectrum[0]
    rank = int(np.count_nonzero(spectrum > floor))
    keep = min(n, rank)
    basis = eig.eigenvectors[:, :keep].T.copy() if keep else np.zeros((0, dim))

    error = float(np.sum(spectrum[n:])) if n < spectrum.size else 0.0
    error = max(error, 0.0)
    top = spectrum[0]
    degenerate = bool(
        0 < n < spectrum.size and abs(spectrum[n - 1] - spectrum[n]) <= DEGENERACY_TOL * top
    )
    spectrum = spectrum.copy()
    spectrum.flags.writeable = False
    return SubspaceFit(Subspace(dim, basis), error, spectrum, degenerate)
