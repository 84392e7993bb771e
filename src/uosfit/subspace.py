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


# The residual kernel walks the points in blocks of about this many bytes of
# coordinates, with one residual of the same size beside them, so a block's
# buffers stay small and in cache.  The complement kernel's blocks hold half
# as many points, and a chunk's products may fill twice this many bytes: it
# takes one product per chunk, so fewer and larger products pay (CHANGES.md
# has the measurements).
_BLOCK_BYTES = 1 << 18


def residual_rows(x, bases) -> np.ndarray:
    """(l, m) squared distances of the m rows of ``x`` to l subspaces.

    ``bases`` holds one (dim, N) orthonormal basis per subspace.  Each block
    of points is copied once as contiguous columns, and each basis in turn
    gives its row from the explicit residual ``x - P x`` (exact zeros for
    points in the subspace, unlike ``|x|^2 - |Bx|^2``), so a row's bits do
    not depend on the other bases of the call.
    """
    m, dim = x.shape
    step = max(1, _BLOCK_BYTES // (x.itemsize * max(dim, 1)))
    width = min(step, m)
    out = np.empty((len(bases), m), dtype=x.dtype)
    # One flat buffer for the block's columns and a residual, so a short
    # last block is contiguous as well.
    buf = np.empty(2 * dim * width, dtype=x.dtype)
    xt, res = buf[:dim * width], buf[dim * width:]
    for start in range(0, m, step):
        stop = min(start + step, m)
        xb = xt[:dim * (stop - start)].reshape(dim, stop - start)
        rb = res[:xb.size].reshape(xb.shape)
        np.copyto(xb, x[start:stop].T)
        for row, basis in zip(out, bases):
            np.matmul(basis.T, basis @ xb, out=rb)
            np.subtract(xb, rb, out=rb)
            np.einsum("km,km->m", rb, rb, out=row[start:stop])
    return out


def complement_rows(x, rows, rank) -> np.ndarray:
    """(G, m) squared distances of the m rows of ``x`` to G fits.

    ``rows`` and ``rank`` are a (G, N, N) stack of orthonormal rows and a
    list of G ranks, as ``best_fit_stack`` returns them: fit g is spanned by
    ``rows[g, :rank[g]]``, and a point's squared norm along the trailing
    rows ``rows[g, rank[g]:]`` is its squared distance to the fit, ``N (N -
    rank)`` multiply-adds.  A rank-0 fit gets each point's squared norm,
    taken once per block, with the zero subspace's residual bits.  Each
    block of points is copied once as contiguous columns.  The call order
    is cut into runs of equal non-zero rank, and per block a chunk of a run,
    as many fits as keep the (chunk, N - rank, block) products within twice
    the block budget, takes one product and one row sum, written in place.
    Each fit's product keeps the shape it has alone, so a row's bits do not
    depend on the other fits of the call.
    """
    m, dim = x.shape
    step = max(1, _BLOCK_BYTES // (2 * x.itemsize * max(dim, 1)))
    width = min(step, m)
    out = np.empty((len(rank), m), dtype=x.dtype)
    zero, pieces = [], []
    for r, run in itertools.groupby(enumerate(rank), key=lambda gr: gr[1]):
        run = [g for g, _ in run]
        if r == 0:
            zero += run
            continue
        chunk = max(1, 2 * _BLOCK_BYTES // (x.itemsize * max((dim - r) * width, 1)))
        for a in range(run[0], run[-1] + 1, chunk):
            b = min(a + chunk, run[-1] + 1)
            pieces.append((a, b, rows[a:b, r:]))
    prods = np.empty(max((len(stack) * stack.shape[1] * width for *_, stack in pieces), default=0),
                     dtype=x.dtype)
    xt = np.empty(dim * width, dtype=x.dtype)
    for start in range(0, m, step):
        stop = min(start + step, m)
        xb = xt[:dim * (stop - start)].reshape(dim, stop - start)
        np.copyto(xb, x[start:stop].T)
        if zero:
            np.einsum("km,km->m", xb, xb, out=out[zero[0], start:stop])
            out[zero[1:], start:stop] = out[zero[0], start:stop]
        for a, b, stack in pieces:
            c, k = stack.shape[:2]
            pb = prods[:c * k * xb.shape[1]].reshape(c, k, xb.shape[1])
            np.matmul(stack, xb, out=pb)
            np.einsum("ckm,ckm->cm", pb, pb, out=out[a:b, start:stop])
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


def best_fit_stack(blocks, n):
    """Optimal subspaces of dimension <= n for G blocks of rows, in one
    stacked eigensolve.

    ``blocks`` yields G real (m_g, N) arrays whose rows are data points; each
    is let go once its covariance is formed.  A block's N x N covariance
    ``x.T @ x`` has the left singular vectors of the data matrix A = x.T as
    eigenvectors and the nonzero eigenvalues of its m_g x m_g Gram A^T A,
    so rank, error and degeneracy come from ``spectral.leading_cut`` grouped
    by block, each group with its own point count.  Block g's subspace is
    spanned by ``rows[g, :rank[g]]``, its top eigenvectors, and the trailing
    rows ``rows[g, rank[g]:]`` complete them to an orthonormal basis of R^N:
    a point's squared norm along them is its squared distance to the
    subspace (see ``complement_rows``).  An empty block has rank 0 and error
    0, and is never degenerate.  All G eigenvector sets are checked
    orthonormal in one batched product.  A block's results do not depend on
    the other blocks.

    Returns ``(rows, rank, spectrum, error, degenerate)``: ``rows`` is a
    read-only (G, N, N) stack of orthonormal rows, descending by
    eigenvalue; ``rank`` is a list of G ints; ``spectrum`` (G, 1, max m_g),
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
    # sym_eigen's eigenvectors are a read-only view of contiguous rows.
    rows = eig.eigenvectors.swapaxes(1, 2)
    dev = np.abs(rows @ rows.swapaxes(1, 2) - np.eye(dim)).max(initial=0.0)
    if not dev <= ORTHONORMAL_TOL:
        if not np.isfinite(dev):
            raise NonFinite("basis contains NaN or infinite entries")
        raise DimensionMismatch("basis rows are not orthonormal")
    return rows, rank[:, 0].tolist(), spectrum, error, degenerate


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
    rows, rank, spectrum, error, degenerate = best_fit_stack([dataset.vectors], n)
    # The basis passed the stack's checks: it needs no second construction pass.
    sub = object.__new__(Subspace)
    object.__setattr__(sub, "ambient_dim", dataset.ambient_dim)
    object.__setattr__(sub, "basis", rows[0, :rank[0]].copy())
    sub.basis.flags.writeable = False
    return SubspaceFit(sub, float(error[0]), spectrum[0, 0], bool(degenerate[0]))
