"""Data sets, linear subspaces, projections, and the best-fit subspace.

The best-fit routine realises the classical least-squares optimum over all
subspaces of dimension at most ``n``: the span of the top left singular
vectors of the data matrix, with the fitting error given exactly by the
trailing eigenvalues of the Gram matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NonFinite, model_dimension
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
    of points is copied once as contiguous columns, and each subspace's row
    comes from the explicit residual ``x - P x`` (exact zeros for points in
    the subspace, unlike ``|x|^2 - |Bx|^2``).  Bases of equal dimension are
    stacked, and per block a chunk of them, as many as keep the (chunk, N,
    block) residual within the block budget, takes one product pair and one
    row sum.  Each basis's products keep the shapes they have alone, so a
    row's bits do not depend on the other bases of the call.
    """
    m, dim = x.shape
    step = max(1, _BLOCK_BYTES // (x.itemsize * max(dim, 1)))
    width = min(step, m)
    chunk = max(1, _BLOCK_BYTES // (x.itemsize * max(dim * width, 1)))
    # Rows in order of basis dimension: each run of equal dimension is one
    # stack, cut into chunks that know their first row of the sorted result.
    dims = [basis.shape[0] for basis in bases]
    order = sorted(range(len(bases)), key=dims.__getitem__)
    pieces, first = [], 0
    for _, run in itertools.groupby(order, key=dims.__getitem__):
        stack = np.array([bases[i] for i in run])
        pieces += [(first + k, stack[k:k + chunk]) for k in range(0, len(stack), chunk)]
        first += len(stack)
    out = np.empty((len(bases), m), dtype=x.dtype)
    # One flat buffer for the block's columns and a chunk's residuals, so a
    # short last block is contiguous as well.
    buf = np.empty((1 + min(chunk, len(bases))) * dim * width, dtype=x.dtype)
    xt, res = buf[:dim * width], buf[dim * width:]
    for start in range(0, m, step):
        stop = min(start + step, m)
        xb = xt[:dim * (stop - start)].reshape(dim, stop - start)
        np.copyto(xb, x[start:stop].T)
        for row, stack in pieces:
            rb = res[:len(stack) * xb.size].reshape((len(stack),) + xb.shape)
            np.matmul(stack.swapaxes(1, 2), stack @ xb, out=rb)
            np.subtract(xb, rb, out=rb)
            np.einsum("ckm,ckm->cm", rb, rb, out=out[row:row + len(stack), start:stop])
    if order == list(range(len(order))):
        return out
    unsorted = np.empty_like(out)
    unsorted[order] = out
    return unsorted


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


def best_fit_stack(blocks, n):
    """Optimal subspaces of dimension <= n for G blocks of rows, in one
    stacked eigensolve.

    ``blocks`` yields G real (m_g, N) arrays whose rows are data points; each
    is let go once its covariance is formed.  An empty block gets a (0, N)
    basis and error 0, and is never degenerate.  A block's N x N
    covariance ``x.T @ x`` has the left singular vectors of the data matrix
    A = x.T as eigenvectors and the nonzero eigenvalues of its m_g x m_g
    Gram A^T A, so rank, error and degeneracy come from
    ``spectral.leading_cut`` grouped by block, each group with its own point
    count.  All G eigenvector sets are checked orthonormal in one batched
    product, past each rank too.  A block's results do not depend on the
    other blocks.

    Returns ``(bases, spectrum, error, degenerate)``: ``bases[g]`` is a
    (rank_g, N) array of orthonormal rows; ``spectrum`` (G, 1, max m_g),
    ``error`` (G,) and ``degenerate`` (G,) are ``leading_cut``'s.
    """
    covs, counts = [], []
    for x in blocks:
        covs.append(x.T @ x)
        counts.append(x.shape[0])
    covs = np.array(covs)
    if np.iscomplexobj(covs):
        raise DimensionMismatch("subspace fits expect real-valued data")
    eig = sym_eigen(covs)
    dim = eig.eigenvalues.shape[1]
    spectrum, rank, error, degenerate = leading_cut(eig.eigenvalues[:, None, :], counts, n)
    rank = rank[:, 0]
    # sym_eigen's eigenvectors are a view of contiguous rows: no copy here.
    rows = np.ascontiguousarray(eig.eigenvectors.swapaxes(1, 2))
    dev = np.abs(rows @ rows.swapaxes(1, 2) - np.eye(dim)).max(initial=0.0)
    if not dev <= ORTHONORMAL_TOL:
        if not np.isfinite(dev):
            raise NonFinite("basis contains NaN or infinite entries")
        raise DimensionMismatch("basis rows are not orthonormal")
    bases = [rows[g, :r] for g, r in enumerate(rank.tolist())]
    return bases, spectrum, error, degenerate


def best_fit_subspace(dataset: DataSet, n) -> SubspaceFit:
    """Optimal subspace of dimension <= n for the data, with exact error.

    The span of the top ``min(n, rank)`` left singular vectors of the matrix
    whose columns are the data.  The returned error is the sum of the Gram
    eigenvalues beyond the n-th, which equals ``total_error`` on the result.
    This is ``best_fit_stack`` on one block: rank, error and the
    ``degenerate`` flag (the optimum is not unique) come from
    ``spectral.leading_cut``, as in ``sis.best_sis``.

    An empty data set yields the zero subspace with error 0.  ``n`` must
    be an integer >= 0 (a bool counts as one), else ``InvalidSpec``.
    """
    n = model_dimension(n)
    if np.iscomplexobj(dataset.vectors):
        raise DimensionMismatch("best_fit_subspace expects real-valued data")
    if dataset.m == 0:
        return SubspaceFit(Subspace.zero(dataset.ambient_dim), 0.0, np.zeros(0), False)
    bases, spectrum, error, degenerate = best_fit_stack([dataset.vectors], n)
    # The basis passed the stack's checks: it needs no second construction pass.
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "ambient_dim", dataset.ambient_dim)
    object.__setattr__(sub, "basis", bases[0].copy())
    sub.basis.flags.writeable = False
    return SubspaceFit(sub, float(error[0]), spectrum[0, 0], bool(degenerate[0]))
