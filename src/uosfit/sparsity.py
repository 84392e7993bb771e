"""Dictionary and sparse-code certificates derived from a fitted bundle.

A bundle of l subspaces of dimension <= n yields a dictionary of at most
l*n unit atoms (the concatenated orthonormal bases) such that every data
point is an n-term combination of atoms from its assigned component, with
total squared reconstruction error equal to the solver objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundles import Bundle, Partition
from .errors import DimensionMismatch, InvalidSpec
from .solver import SolveConfig, SolveReport, solve
from .spectral import EXACT_TOL
from .subspace import DataSet


@dataclass(frozen=True)
class Dictionary:
    """Unit atoms (rows) plus, per bundle component, the indices spanning it.

    ``raw_atom_count`` is the atom count before cross-component merging; it
    equals ``len(atoms)`` when no merge happened.
    """

    atoms: np.ndarray
    atom_to_subspace: tuple
    raw_atom_count: int

    def __len__(self):
        return self.atoms.shape[0]


@dataclass(frozen=True)
class SparseCode:
    """Coefficient matrix with one column per data point.

    ``columns[k, i]`` is the weight of atom k in the representation of point
    i; the support of each column lies inside a single component's atom set.
    """

    columns: np.ndarray
    support_sizes: tuple


@dataclass(frozen=True)
class SparsityCertificate:
    epsilon: float
    is_exact: bool
    dictionary: Dictionary
    code: SparseCode
    report: SolveReport


def extract_dictionary(bundle: Bundle, dedup_tol=0.0) -> Dictionary:
    """Concatenate the nonzero components' bases into a dictionary.

    With ``dedup_tol > 0``, a basis vector whose coherence with an existing
    atom exceeds ``1 - dedup_tol`` reuses that atom instead of adding a new
    one (shared-direction heuristic); the default 0 never merges.  Zero
    subspaces contribute nothing.
    """
    if not 0.0 <= dedup_tol < 1.0:
        raise InvalidSpec("dedup_tol must lie in [0, 1)")
    atoms = []
    groups = []
    raw = 0
    for sub in bundle:
        idxs = []
        for w in sub.basis:
            raw += 1
            hit = None
            if dedup_tol > 0.0:
                for k, a in enumerate(atoms):
                    if abs(float(a @ w)) > 1.0 - dedup_tol:
                        hit = k
                        break
            if hit is None:
                atoms.append(w.copy())
                hit = len(atoms) - 1
            idxs.append(hit)
        groups.append(tuple(idxs))
    mat = np.array(atoms) if atoms else np.zeros((0, bundle.ambient_dim))
    mat.flags.writeable = False
    return Dictionary(atoms=mat, atom_to_subspace=tuple(groups), raw_atom_count=raw)


def encode(dataset: DataSet, bundle: Bundle, partition: Partition,
           dictionary: Dictionary) -> SparseCode:
    """Coefficients of each point's projection onto its assigned component.

    Per-component atom sets are orthonormal, so the coefficients are plain
    inner products and ``sum_i ||f_i - D x_i||^2`` equals gamma(P, V).
    """
    if partition.num_points != dataset.m:
        raise DimensionMismatch("partition and data disagree in length")
    if partition.num_cells != len(bundle):
        raise DimensionMismatch("partition and bundle disagree in length")
    if dictionary.atoms.shape[0] and dictionary.atoms.shape[1] != dataset.ambient_dim:
        raise DimensionMismatch("dictionary atoms and data disagree in dimension")

    x = dataset.vectors
    cols = np.zeros((len(dictionary), dataset.m))
    for cell, idxs in zip(partition.cells(), dictionary.atom_to_subspace):
        if idxs and cell.size:
            pts = x[cell]
            # One matrix-vector product per atom: a single GEMM over the
            # cell's atoms would round some coefficients differently.
            for k in idxs:
                cols[k, cell] = pts @ dictionary.atoms[k]
    support = tuple(np.count_nonzero(cols, axis=0).tolist())
    cols.flags.writeable = False
    return SparseCode(columns=cols, support_sizes=support)


def reconstruction_error(dataset: DataSet, dictionary: Dictionary,
                         code: SparseCode) -> float:
    """Total squared error ||F - D X||_F^2 of the coded representation."""
    rec = code.columns.T @ dictionary.atoms if len(dictionary) else np.zeros_like(dataset.vectors)
    res = dataset.vectors - rec
    return float(np.sum(res * res))


def sparsity_certificate(dataset: DataSet, cfg: SolveConfig, dedup_tol=0.0,
                         exact_tol=None) -> SparsityCertificate:
    """Solve for an optimal bundle and package the sparsity certificate.

    ``epsilon`` is the achieved objective; ``is_exact`` holds when epsilon
    falls below ``exact_tol`` (default: ``spectral.EXACT_TOL`` times the total
    data energy; epsilon is exactly 0 on all-zero data).
    """
    report = solve(dataset, cfg)
    dictionary = extract_dictionary(report.bundle, dedup_tol)
    code = encode(dataset, report.bundle, report.partition, dictionary)
    if exact_tol is None:
        exact_tol = float((EXACT_TOL * dataset.norms_sq()).sum())
    epsilon = report.objective
    return SparsityCertificate(
        epsilon=epsilon,
        is_exact=bool(epsilon <= exact_tol),
        dictionary=dictionary,
        code=code,
        report=report,
    )
