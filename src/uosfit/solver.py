"""Alternating search for an optimal bundle, with multi-start and an oracle.

Each restart alternates two exact steps: fit every cell of the current
partition with its optimal subspace, then reassign every point to a nearest
fitted subspace.  The assigned-cell error (gamma) strictly decreases while
the loop runs and the loop stops as soon as gamma matches the free
nearest-subspace error, so a restart terminates after finitely many
partitions and returns a certificate pair (partition, bundle) that is
simultaneously a best partition for its bundle and a best bundle for its
partition.

``search`` runs the restarts and the post-hoc certificate check for any
model family given its fit and distance maps; the Euclidean solver, the
shift-invariant solver (``sis.solve_sis_bundle``) and the sweep share it.
``brute_force`` enumerates all assignments and is the ground-truth oracle
for small instances.  ``sparsity_curve`` sweeps (l, n) grids, warm-starting
along l so the reported error can never increase with l.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bundles import Bundle, Partition, distance_matrix, fit_partition, nearest
from .errors import EmptyDataSet, InvalidSpec, TooLarge
from .subspace import DataSet, Subspace

INIT_STRATEGIES = ("random_partition", "farthest_point")

BRUTE_FORCE_GUARD = 10**7


@dataclass(frozen=True)
class SolveConfig:
    """Search parameters.

    l : number of subspaces in the bundle (>= 1)
    n : maximum subspace dimension (>= 0)
    restarts : independent seeded starts; the best final objective wins
    seed : base seed (>= 0); restart r uses the stream seeded by (seed, r)
    init_strategy : 'random_partition' (uniform iid cell labels) or
        'farthest_point' (greedy residual-based seeding)
    rel_tol : relative fixed-point tolerance for the stopping test
    max_iters : per-restart safety cap on alternation steps
    """

    l: int
    n: int
    restarts: int = 32
    seed: int = 0
    init_strategy: str = "random_partition"
    rel_tol: float = 1e-12
    max_iters: int = 1000

    def __post_init__(self):
        if self.l < 1:
            raise InvalidSpec("l must be >= 1")
        if self.n < 0:
            raise InvalidSpec("n must be >= 0")
        if self.restarts < 1:
            raise InvalidSpec("restarts must be >= 1")
        if self.seed < 0:
            raise InvalidSpec("seed must be >= 0")
        if self.init_strategy not in INIT_STRATEGIES:
            raise InvalidSpec(f"init_strategy must be one of {INIT_STRATEGIES}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0) or self.max_iters < 1:
            raise InvalidSpec("rel_tol must be finite and >= 0, and max_iters >= 1")


@dataclass(frozen=True)
class SolveReport:
    """Result of a multi-start solve: the winning certificate plus accounting.

    ``objective`` is the converged gamma value of the winning restart (equal
    to the nearest-subspace error within rel_tol at a fixed point) and is the
    minimum of ``per_restart_objectives``.  ``objective_trace`` holds the
    winning restart's gamma per iteration, strictly decreasing except
    possibly its final entry.
    """

    bundle: Bundle
    partition: Partition
    objective: float
    per_restart_objectives: tuple
    iterations_per_restart: tuple
    objective_trace: tuple
    degenerate_flags: tuple
    converged: bool


@dataclass(frozen=True)
class SweepRow:
    l: int
    n: int
    epsilon: float


@dataclass
class _Descent:
    assignment: np.ndarray
    models: object
    flags: tuple
    objective: float
    trace: tuple
    converged: bool


def _descend(assignment, fit_cells, distances, rel_tol, max_iters):
    """Run one alternation chain from the given initial assignment.

    ``fit_cells(assignment) -> (models, gamma, flags)`` must return the
    per-cell optimal models and the exact gamma value of the fit;
    ``distances(models) -> (m, l)`` the squared point-model distances.
    """
    seen = {assignment.tobytes()}
    trace = []
    converged = False
    models = flags = None
    gam = err = np.inf
    fitted = assignment
    for _ in range(max_iters):
        fitted = assignment
        models, gam, flags = fit_cells(fitted)
        trace.append(gam)
        dmat = distances(models)
        err = float(dmat.min(axis=1).sum())
        if gam <= err * (1.0 + rel_tol) + rel_tol:
            converged = True
            break
        assignment = nearest(dmat)
        key = assignment.tobytes()
        # A revisited partition would contradict strict descent (finite
        # termination proof); only numerical breakage could trigger this.
        if key in seen:
            raise ArithmeticError("partition revisited during descent")
        seen.add(key)
    return _Descent(fitted, models, tuple(flags), float(gam), tuple(trace), converged)


def _farthest_point_assignment(m, l, rng, singleton_dists):
    """Greedy seeding: first seed random, then argmax of min residual to the
    spans of already-chosen seeds; finally nearest-span assignment.

    Seeds are distinct points while any remain (so l >= m yields one cell
    per point); once the residuals all vanish the tie goes to the lowest
    unchosen index.  Past m seeds a repeated point adds a duplicate column,
    which never wins the nearest-seed tie.
    """
    first = int(rng.integers(m))
    chosen = np.zeros(m, dtype=bool)
    chosen[first] = True
    d = singleton_dists(first)
    mins = d.copy()
    seed_dists = [d]
    for _ in range(1, l):
        # Residuals are >= 0, so -1 rules out the chosen points.
        nxt = int(np.argmax(np.where(chosen, -1.0, mins)))
        chosen[nxt] = True
        d = singleton_dists(nxt)
        seed_dists.append(d)
        np.minimum(mins, d, out=mins)
    return nearest(np.stack(seed_dists).T)


def _best_descent(m, cfg, fit_cells, distances, singleton_dists, seeds=()):
    """Descend from every seeded restart, then from each warm seed.

    Returns the descent with the lowest objective (the earliest on ties, so a
    cold restart beats a warm seed) and the list of cold restarts.
    """

    def cold(ridx):
        rng = np.random.default_rng((cfg.seed, ridx))
        if cfg.init_strategy == "random_partition":
            return rng.integers(0, cfg.l, size=m).astype(np.intp)
        return _farthest_point_assignment(m, cfg.l, rng, singleton_dists)

    def descend(p0):
        return _descend(p0, fit_cells, distances, cfg.rel_tol, cfg.max_iters)

    restarts = [descend(cold(r)) for r in range(cfg.restarts)]
    warm = [descend(p0) for p0 in seeds]
    return min(restarts + warm, key=lambda d: d.objective), restarts


def search(m, cfg: SolveConfig, fit_cells, distances, singleton_dists) -> SolveReport:
    """Multi-start alternating search over any model family.

    ``fit_cells(assignment) -> (models, gamma, flags)`` fits every cell,
    ``distances(models) -> (m, l)`` gives squared point-model distances and
    ``singleton_dists(j) -> (m,)`` the distances to the span of point j
    (used by farthest-point seeding).  The winning pair is re-verified post
    hoc with one extra evaluation of each map: its gamma must match the
    nearest-model error, and re-fitting its cells must not go below it.
    """
    best, restarts = _best_descent(m, cfg, fit_cells, distances, singleton_dists)
    converged = best.converged
    if converged:
        _, refit_gamma, _ = fit_cells(best.assignment)
        err = float(distances(best.models).min(axis=1).sum())
        tol = cfg.rel_tol * (1.0 + abs(best.objective)) + cfg.rel_tol
        converged = abs(best.objective - err) <= tol and refit_gamma >= best.objective - tol
    return SolveReport(
        bundle=best.models,
        partition=Partition(best.assignment, cfg.l),
        objective=best.objective,
        per_restart_objectives=tuple(r.objective for r in restarts),
        iterations_per_restart=tuple(len(r.trace) for r in restarts),
        objective_trace=best.trace,
        degenerate_flags=best.flags,
        converged=bool(converged),
    )


def _euclidean_step(dataset, cfg):
    """The alternation maps for subspaces of dimension <= cfg.n in l cells.

    ``fit_partition`` and ``distance_matrix`` are looked up by their module
    names at each call, so wrappers installed on them see every step.
    """
    x = dataset.vectors
    norms = np.einsum("ij,ij->i", x, x)

    def fit_cells(assignment):
        bundle, errors, flags = fit_partition(dataset, Partition(assignment, cfg.l), cfg.n)
        return bundle, float(errors.sum()), flags

    def distances(bundle):
        return distance_matrix(dataset, bundle)

    def singleton_dists(j):
        nj = norms[j]
        if nj <= 0.0:
            return norms.copy()
        inner = x @ x[j]
        return np.maximum(norms - inner * inner / nj, 0.0)

    return fit_cells, distances, singleton_dists


def solve(dataset: DataSet, cfg: SolveConfig) -> SolveReport:
    """Multi-start alternating search for an optimal bundle of subspaces.

    Each restart draws an initial partition per ``cfg.init_strategy``, then
    alternates cellwise best fits with nearest-subspace reassignment until
    gamma and the nearest-subspace error agree within ``cfg.rel_tol``.  The
    certificate pair of the winning restart is re-verified post hoc with one
    extra fit/assignment evaluation.
    """
    if dataset.m == 0:
        raise EmptyDataSet("solve requires at least one data vector")
    return search(dataset.m, cfg, *_euclidean_step(dataset, cfg))


def brute_force(dataset: DataSet, l, n):
    """Global optimum by enumerating all l^m assignments.

    Returns ``(objective, Partition, Bundle)`` for the best assignment found
    (first in enumeration order on ties).  Guarded at ``l^m <= 10^7``.
    """
    if dataset.m == 0:
        raise EmptyDataSet("brute_force requires at least one data vector")
    if l < 1:
        raise InvalidSpec("l must be >= 1")
    if l**dataset.m > BRUTE_FORCE_GUARD:
        raise TooLarge(f"{l}^{dataset.m} assignments exceed the enumeration guard")

    best = None
    for combo in itertools.product(range(l), repeat=dataset.m):
        partition = Partition(np.array(combo, dtype=np.intp), l)
        bundle, errors, _ = fit_partition(dataset, partition, n)
        g = float(errors.sum())
        if best is None or g < best[0]:
            best = (g, partition, bundle)
    return best


def sparsity_curve(dataset: DataSet, l_values, n_values, cfg: SolveConfig):
    """Sweep (l, n) pairs; each row reports the achieved error epsilon.

    For each n, l is visited in increasing order and the search is
    warm-started from the previous solution padded with zero subspaces, so
    the epsilon column never increases along l.  Rows are ordered by
    (n, l).
    """
    l_values = sorted(set(int(v) for v in l_values))
    n_values = sorted(set(int(v) for v in n_values))
    if not l_values or not n_values:
        raise InvalidSpec("l and n ranges must be nonempty")
    if dataset.m == 0:
        raise EmptyDataSet("sparsity_curve requires at least one data vector")

    rows = []
    for n in n_values:
        prev = None
        for l in l_values:
            cfg_ln = replace(cfg, l=l, n=n)
            fit_cells, distances, singleton_dists = _euclidean_step(dataset, cfg_ln)
            # Deterministic warm seeds on top of the cold restarts.  Plain
            # alternation never repopulates an empty cell, so growing l needs
            # explicit candidates: reassignment against the padded previous
            # bundle, the previous partition with its worst-fit point given
            # the new cell, and (once l >= m) one cell per point.
            seeds = []
            if l >= dataset.m:
                seeds.append(np.arange(dataset.m, dtype=np.intp))
            padded = None
            if prev is not None:
                # The previous certificate with zero subspaces appended: the
                # empty cells add exactly 0.0 to gamma, so its objective is
                # bitwise the previous epsilon.
                extra = l - len(prev.models)
                zeros = (Subspace.zero(prev.models.ambient_dim),) * extra
                padded = replace(prev, models=Bundle(tuple(prev.models) + zeros),
                                 flags=prev.flags + (False,) * extra)
                dmat = distances(padded.models)
                seeds.append(nearest(dmat))
                assigned = dmat[np.arange(dataset.m), prev.assignment]
                split = prev.assignment.copy()
                split[int(np.argmax(assigned))] = l - 1
                seeds.append(split)
            best, _ = _best_descent(dataset.m, cfg_ln, fit_cells, distances,
                                    singleton_dists, seeds)
            if padded is not None and padded.objective <= best.objective:
                # Floor: the epsilon column must never increase along l, even
                # by one ulp.
                best = padded
            rows.append(SweepRow(l=l, n=n, epsilon=best.objective))
            prev = best
    return rows
