"""Bundles of subspaces, partitions of the data, and the error functionals.

Three errors drive everything:

* ``objective_e`` charges each point to its nearest subspace in the bundle,
* ``gamma`` charges each point to its *assigned* subspace under a partition,
* per-cell best fits (``best_bundle``) minimise gamma for a fixed partition.

``objective_e(F, V) <= gamma(F, P, V)`` always, with equality exactly when
P assigns every point to a nearest subspace (``best_partition``); in floats
both hold exactly, as the two sum the same distances over the same tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .subspace import DataSet, best_fit_subspace, residual_rows


@dataclass(frozen=True)
class Bundle:
    """An ordered sequence of subspaces with a shared ambient dimension."""

    subspaces: tuple

    def __post_init__(self):
        subs = tuple(self.subspaces)
        if len(subs) < 1:
            raise DimensionMismatch("a bundle needs at least one subspace")
        dims = {s.ambient_dim for s in subs}
        if len(dims) != 1:
            raise DimensionMismatch(f"mixed ambient dimensions in bundle: {sorted(dims)}")
        object.__setattr__(self, "subspaces", subs)

    def __len__(self):
        return len(self.subspaces)

    def __iter__(self):
        return iter(self.subspaces)

    def __getitem__(self, i):
        return self.subspaces[i]

    @property
    def ambient_dim(self):
        return self.subspaces[0].ambient_dim


@dataclass(frozen=True)
class Partition:
    """Assignment of each of m points to one of ``num_cells`` cells (0-based).

    Cells may be empty; disjointness and coverage are automatic from the
    index-vector representation.
    """

    assignment: np.ndarray
    num_cells: int

    def __post_init__(self):
        given = np.asarray(self.assignment)
        # A NaN or out-of-range float casts to some integer: the check below
        # sees that it changed.
        with np.errstate(invalid="ignore"):
            a = given.astype(np.intp)
        if a.ndim != 1:
            raise DimensionMismatch("assignment must be a flat index vector")
        if not np.array_equal(a, given):
            raise IndexOutOfRange("assignment entries must be integers")
        try:
            operator.index(self.num_cells)
        except TypeError:
            raise IndexOutOfRange("num_cells must be an integer") from None
        if self.num_cells < 1:
            raise IndexOutOfRange("num_cells must be >= 1")
        if a.size and (a.min() < 0 or a.max() >= self.num_cells):
            raise IndexOutOfRange(
                f"assignment entries must lie in [0, {self.num_cells})"
            )
        a.flags.writeable = False
        object.__setattr__(self, "assignment", a)

    @property
    def num_points(self):
        return self.assignment.shape[0]

    def cells(self):
        """Index arrays of the cells, in cell order."""
        return [np.nonzero(self.assignment == i)[0] for i in range(self.num_cells)]


def distance_matrix(dataset: DataSet, bundle: Bundle) -> np.ndarray:
    """(m, l) matrix of squared distances from each point to each subspace.

    The result is the transposed view of a C-ordered (l, m) array, so each
    subspace's column is contiguous (see ``nearest``).
    """
    if dataset.ambient_dim != bundle.ambient_dim:
        raise DimensionMismatch(
            f"data dim {dataset.ambient_dim} vs bundle dim {bundle.ambient_dim}"
        )
    return residual_rows(dataset.vectors, [sub.basis for sub in bundle]).T


def nearest(dmat) -> np.ndarray:
    """Row-wise argmin of an (m, l) distance matrix (see ``nearest_with_min``)."""
    return nearest_with_min(dmat.T)[0]


def nearest_with_min(columns):
    """Argmin and min across l >= 1 equal-length distance columns, taken one
    column at a time; returns ``(labels, minima)``.

    For an (m, l) matrix ``dmat``, ``nearest_with_min(dmat.T)`` equals
    ``(dmat.argmin(axis=1), dmat.min(axis=1))``: the strict ``<`` sends ties
    to the lowest index.  Columns of ``distance_matrix`` are contiguous, so
    each pass reads memory in order.  ``columns`` may be any iterable, so a
    caller can build each column only when the pass reaches it.
    """
    columns = iter(columns)
    best = np.array(next(columns))
    # Labels in one byte until a column index needs more: less memory
    # traffic per column than the index type.
    out = np.zeros(best.size, dtype=np.uint8)
    closer, mark = np.empty(best.size, dtype=bool), np.empty_like(out)
    for j, col in enumerate(columns, 1):
        if j > np.iinfo(out.dtype).max:
            out = out.astype(np.min_scalar_type(j))
            mark = np.empty_like(out)
        np.less(col, best, out=closer)
        # Columns come in increasing order, so a closer column's index is
        # the largest label yet: a maximum writes it without a masked store.
        np.maximum(out, np.multiply(closer, j, out=mark, dtype=out.dtype), out=out)
        np.minimum(best, col, out=best)
    return out.astype(np.intp), best


def objective_e(dataset: DataSet, bundle: Bundle) -> float:
    """Sum over points of the squared distance to the nearest bundle member."""
    if dataset.m == 0:
        return 0.0
    return float(distance_matrix(dataset, bundle).min(axis=1).sum())


def gamma(dataset: DataSet, partition: Partition, bundle: Bundle) -> float:
    """Sum over points of the squared distance to the assigned subspace,
    summed as ``objective_e`` sums the nearest ones: ``objective_e <= gamma``
    holds exactly, with bitwise equality at ``best_partition``."""
    if partition.num_points != dataset.m:
        raise DimensionMismatch(
            f"partition covers {partition.num_points} points, data has {dataset.m}"
        )
    if partition.num_cells != len(bundle):
        raise DimensionMismatch(
            f"partition has {partition.num_cells} cells, bundle has {len(bundle)}"
        )
    dmat = distance_matrix(dataset, bundle)
    return float(dmat[np.arange(dataset.m), partition.assignment].sum())


def best_partition(dataset: DataSet, bundle: Bundle) -> Partition:
    """Assign every point to a nearest subspace; ties go to the lowest index.

    Distances are compared as exact floating squared values (no tolerance
    band), so the tie rule fires only on exact equality.
    """
    return Partition(nearest(distance_matrix(dataset, bundle)), len(bundle))


def fit_partition(dataset: DataSet, partition: Partition, n):
    """Best-fit each cell; returns (Bundle, per-cell errors, degeneracy flags).

    Empty cells map to the zero subspace with error 0.
    """
    if partition.num_points != dataset.m:
        raise DimensionMismatch(
            f"partition covers {partition.num_points} points, data has {dataset.m}"
        )
    subs, errors, flags = [], [], []
    for idx in partition.cells():
        fit = best_fit_subspace(dataset.subset(idx), n)
        subs.append(fit.subspace)
        errors.append(fit.error)
        flags.append(fit.degenerate)
    return Bundle(tuple(subs)), np.array(errors), flags


def best_bundle(dataset: DataSet, partition: Partition, n) -> Bundle:
    """The bundle minimising gamma for the given partition (cellwise best fits)."""
    bundle, _, _ = fit_partition(dataset, partition, n)
    return bundle
