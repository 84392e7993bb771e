"""Alternating search for an optimal bundle, with multi-start and an oracle.

Each chain alternates two exact steps: fit every cell of the current
partition with its optimal model, then reassign every point to a nearest
fitted model.  The assigned-cell error (gamma) strictly decreases while the
chain runs and it stops as soon as gamma matches the free nearest-model
error, so a chain terminates after finitely many partitions and ends at a
certificate pair (partition, bundle) that is simultaneously a best partition
for its bundle and a best bundle for its partition.

One driver, ``search``, runs every search: the Euclidean ``solve``, the
shift-invariant ``sis.solve_sis_bundle`` and each row of ``sparsity_curve``.
All cold restarts and warm seeds of a search advance in lockstep: each step
fits every live chain's cells with one stacked eigensolve and takes the
distances of every live model from one call, and chains that stop drop out.
The search works on the data divided by a power of two (exact), so its
arithmetic stays inside the float range for any finite data.
``brute_force`` enumerates all assignments and is the ground-truth oracle
for small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .bundles import (Bundle, Partition, distance_matrix, fit_partition, nearest,
                      nearest_with_min)
from .errors import EmptyDataSet, InvalidSpec, TooLarge
from .spectral import STOP_TOL
from .subspace import DataSet, Subspace, best_fit_stack, residual_rows

INIT_STRATEGIES = ("random_partition", "farthest_point")

BRUTE_FORCE_GUARD = 10**7

# The safety cap on a chain's alternation steps.
MAX_ITERS = 1000


@dataclass(frozen=True)
class SolveConfig:
    """Search parameters.

    l : number of subspaces in the bundle (>= 1)
    n : maximum subspace dimension (>= 0)
    restarts : independent seeded starts; the best final objective wins
    seed : base seed (>= 0); restart r uses the stream seeded by (seed, r)
    init_strategy : 'random_partition' (uniform iid cell labels) or
        'farthest_point' (greedy residual-based seeding)

    Every chain stops after at most ``MAX_ITERS`` alternation steps.
    """

    l: int
    n: int
    restarts: int = 32
    seed: int = 0
    init_strategy: str = "random_partition"

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


@dataclass(frozen=True)
class SolveReport:
    """Result of a multi-start solve: the winning certificate plus accounting.

    ``objective`` is the converged gamma value of the winning restart (at a
    fixed point, the nearest-subspace error up to ``STOP_TOL`` times the data
    energy) and is the minimum of ``per_restart_objectives``.
    ``objective_trace`` holds the winning restart's gamma per iteration,
    strictly decreasing except possibly its final entry.  ``residuals_sq``
    holds each point's squared distance to its member of ``bundle``.
    """

    bundle: Bundle
    partition: Partition
    objective: float
    per_restart_objectives: tuple
    iterations_per_restart: tuple
    objective_trace: tuple
    degenerate_flags: tuple
    converged: bool
    residuals_sq: tuple


@dataclass(frozen=True)
class SweepRow:
    l: int
    n: int
    epsilon: float


@dataclass
class _Chain:
    """One alternation chain: the partition it fits next, the one it fitted
    last, and gamma per step."""

    assignment: np.ndarray
    fitted: np.ndarray = None
    trace: list = field(default_factory=list)
    converged: bool = False

    @property
    def objective(self):
        return self.trace[-1]


def _step(live, family, tol, key_type):
    """One alternation step of every live chain; returns those that go on.

    One stable sort of the stacked labels gives every chain's cells, each
    listing its points in index order.  They go to ``fit`` cell-major (cell
    0 of every chain, then cell 1, ...), so the distance rows of one cell
    number are one contiguous run and every chain is reassigned by one
    ``nearest_with_min`` pass.  Each chain's gamma sums its own l cell
    errors in cell order and its nearest error sums its own minima from
    that pass, so no chain's arithmetic depends on which chains share the
    step.  The labels are sorted as ``key_type``, which holds every one.
    """
    l, count = family.l, len(live)
    labels = np.array([chain.assignment for chain in live])
    order = np.argsort(labels.astype(key_type), axis=1, kind="stable").ravel()
    labels += np.arange(0, count * l, l)[:, None]
    ends = np.bincount(labels.ravel(), minlength=count * l).cumsum().tolist()
    starts = [0] + ends[:-1]
    models, errors = family.fit([order[starts[c]:ends[c]]
                                 for i in range(l) for c in range(i, count * l, l)])
    dist = family.distances(models)
    gammas = np.ascontiguousarray(errors.reshape(l, count).T).sum(axis=1).tolist()
    moved, minima = nearest_with_min(dist.reshape(l, -1).T)
    bars = (minima.reshape(count, -1).sum(axis=1) + tol).tolist()
    moved = moved.reshape(count, -1)
    going = []
    for chain, gam, bar, assignment in zip(live, gammas, bars, moved):
        chain.fitted = chain.assignment
        chain.trace.append(gam)
        if gam <= bar:
            chain.converged = True
            continue
        # Gamma depends on the partition alone: strict descent rules out a
        # revisit and ends the chain.  Only numerical breakage fails it.
        if len(chain.trace) > 1 and not gam < chain.trace[-2]:
            raise ArithmeticError("gamma did not decrease during descent")
        chain.assignment = assignment
        going.append(chain)
    return going


def _lockstep(starts, family, tol, max_iters):
    """Run one alternation chain from each start, all in lockstep.

    ``family`` supplies the maps of a model family (see ``search``).  A chain
    stops at a fixed point (gamma within ``tol`` of the nearest-model error)
    or after ``max_iters`` steps.  Returns the chains in the order of
    ``starts``.
    """
    # Labels fit the smallest unsigned type holding l - 1: exact, and small.
    key_type = np.min_scalar_type(family.l - 1)
    chains = [_Chain(a) for a in starts]
    live = chains
    for _ in range(max_iters):
        if not live:
            break
        live = _step(live, family, tol, key_type)
    return chains


def _farthest_point_assignment(m, l, rng, dists_of):
    """Greedy seeding: first seed random, then argmax of min residual to the
    models fitted to already-chosen seeds alone; finally nearest-seed
    assignment.  ``dists_of(j)`` gives the (m,) distances to the fit of
    point j alone.

    Seeds are distinct points while any remain (so l >= m yields one cell
    per point); once the residuals all vanish the tie goes to the lowest
    unchosen index.  Past m seeds a repeated point adds a duplicate column,
    which never wins the nearest-seed tie.
    """
    first = int(rng.integers(m))
    chosen = np.zeros(m, dtype=bool)
    chosen[first] = True
    d = dists_of(first)
    mins = d.copy()
    seed_dists = [d]
    for _ in range(1, l):
        # Residuals are >= 0, so -1 rules out the chosen points.
        nxt = int(np.argmax(np.where(chosen, -1.0, mins)))
        chosen[nxt] = True
        d = dists_of(nxt)
        seed_dists.append(d)
        np.minimum(mins, d, out=mins)
    return nearest(np.stack(seed_dists).T)


def _prescaled(dataset):
    """The data divided by 2^e, with e the binary exponent of its largest
    entry (real and imaginary parts alike), and e.

    Scaling by a power of two is exact, and every decision of the search is
    scale-invariant, so errors of the scaled data are exactly 4^-e times the
    unscaled ones while the scaled arithmetic can neither over- nor
    underflow.
    """
    v = dataset.vectors
    parts = v.view(np.float64) if np.iscomplexobj(v) else v
    peak = float(np.abs(parts).max(initial=0.0))
    e = int(np.frexp(peak)[1]) - 1 if peak > 0.0 else 0
    if e == 0:
        return dataset, 0
    return DataSet(np.ldexp(parts, -e).view(v.dtype)), e


def _unscaled(values, e):
    """Errors of data scaled by 2^-e, back at the data's scale: exact while
    they stay in the float range, and inf past its top (as an unscaled
    search would have computed them)."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.asarray(values, dtype=np.float64), 2 * e).tolist()


def search(dataset, cfg: SolveConfig, family_of, seeds=lambda family: ()) -> SolveReport:
    """Multi-start alternating search over any model family.

    ``family_of(data)`` returns the five maps of the family on ``data``,
    which is ``dataset`` divided by a power of two (see ``_prescaled``):

    * ``l``, the number of cells;
    * ``fit(cells) -> (models, errors)``: the optimal model of each index
      array and its exact error (a length-G array); an empty cell's model
      fits nothing and has error 0;
    * ``distances(models) -> (G, m)``: squared point-model distances;
    * ``refit(assignment) -> (bundle, gamma, flags)``: the public fit of one
      partition, with its gamma and per-cell degeneracy flags;
    * ``bundle_distances(bundle) -> (m, l)``: the distances to such a bundle.

    Farthest-point seeding uses ``fit`` too: each chosen point is fitted
    alone and its model's distances come from ``distances``.

    ``seeds(family)`` yields warm starting partitions, run after the
    ``cfg.restarts`` cold ones, all in one lockstep (``_lockstep``).  The
    lowest objective wins, the earliest chain on ties, so a cold restart
    beats a warm seed; ``per_restart_objectives`` holds the cold restarts
    only.  Only the winner is refitted into a bundle, and its pair is
    re-verified post hoc: its gamma must match the nearest-model error of
    that bundle, and the refit must not go below it.  This check and each
    chain's stop test allow ``STOP_TOL`` times the energy of the data (its
    total squared norm, the zero model's error).  Its distances give
    ``residuals_sq``.  Objectives, trace and residuals are at the data's own
    scale.
    """
    if dataset.m == 0:
        raise EmptyDataSet("a search requires at least one data vector")
    scaled, e = _prescaled(dataset)
    family = family_of(scaled)
    # Scaled before the sum: the energy can overflow while every norm is finite.
    tol = float((STOP_TOL * scaled.norms_sq()).sum())

    def cold(ridx):
        rng = np.random.default_rng((cfg.seed, ridx))
        if cfg.init_strategy == "random_partition":
            return rng.integers(0, cfg.l, size=scaled.m).astype(np.intp)
        return _farthest_point_assignment(
            scaled.m, cfg.l, rng, lambda j: family.distances(family.fit([np.array([j])])[0])[0])

    starts = itertools.chain(map(cold, range(cfg.restarts)), seeds(family))
    chains = _lockstep(starts, family, tol, MAX_ITERS)
    best, restarts = min(chains, key=lambda c: c.objective), chains[:cfg.restarts]
    bundle, refit_gamma, flags = family.refit(best.fitted)
    dmat = family.bundle_distances(bundle)
    err = float(dmat.min(axis=1).sum())
    converged = (best.converged and abs(best.objective - err) <= tol
                 and refit_gamma >= best.objective - tol)
    return SolveReport(
        bundle=bundle,
        partition=Partition(best.fitted, cfg.l),
        objective=_unscaled(best.objective, e),
        per_restart_objectives=tuple(_unscaled([r.objective for r in restarts], e)),
        iterations_per_restart=tuple(len(r.trace) for r in restarts),
        objective_trace=tuple(_unscaled(best.trace, e)),
        degenerate_flags=tuple(flags),
        converged=bool(converged),
        residuals_sq=tuple(_unscaled(dmat[np.arange(scaled.m), best.fitted], e)),
    )


class _Subspaces:
    """The alternation maps for subspaces of dimension <= n in l cells.

    A step's cells are fitted by ``subspace.best_fit_stack`` and its
    distances come from one ``residual_rows`` call.  ``fit_partition`` and
    ``distance_matrix`` (the winner's refit and check) are looked up by
    their module names at each call, so wrappers installed on them see it.
    """

    def __init__(self, dataset, l, n):
        self.dataset, self.l, self.n = dataset, l, n
        self.x = dataset.vectors

    def fit(self, cells):
        bases, _, error, _ = best_fit_stack((self.x.take(idx, axis=0) for idx in cells), self.n)
        return bases, error

    def distances(self, bases):
        return residual_rows(self.x, bases)

    def refit(self, assignment):
        bundle, errors, flags = fit_partition(self.dataset, Partition(assignment, self.l), self.n)
        return bundle, float(errors.sum()), flags

    def bundle_distances(self, bundle):
        return distance_matrix(self.dataset, bundle)


def solve(dataset: DataSet, cfg: SolveConfig) -> SolveReport:
    """Multi-start alternating search for an optimal bundle of subspaces.

    Each restart draws an initial partition per ``cfg.init_strategy``, then
    alternates cellwise best fits with nearest-subspace reassignment until
    gamma and the nearest-subspace error agree (see ``search``).  The
    certificate pair of the winning restart is re-verified post hoc with one
    extra fit/assignment evaluation.
    """
    return search(dataset, cfg, lambda data: _Subspaces(data, cfg.l, cfg.n))


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

    Each row is one ``search``, so its winner is refitted and
    certificate-checked as a fit's is.  For each n, l is visited in
    increasing order and the search is warm-started from the previous
    row's certificate padded with zero subspaces, so the epsilon column
    never increases along l.  Rows are ordered by (n, l).
    """
    l_values = sorted(set(int(v) for v in l_values))
    n_values = sorted(set(int(v) for v in n_values))
    if not l_values or not n_values:
        raise InvalidSpec("l and n ranges must be nonempty")

    m = dataset.m
    rows = []
    for n in n_values:
        prev = None  # the report of the previous row's certificate
        for l in l_values:

            def seeds(family):
                # Plain alternation never repopulates an empty cell, so
                # growing l needs explicit candidates: reassignment against
                # the padded previous bundle, the previous partition with its
                # worst-fit point given the new cell, and (once l >= m) one
                # cell per point.
                if l >= m:
                    yield np.arange(m, dtype=np.intp)
                if prev is not None:
                    # The previous certificate with zero subspaces appended:
                    # the empty cells add exactly 0.0 to gamma, so its
                    # objective is bitwise the previous epsilon.
                    zeros = (Subspace.zero(dataset.ambient_dim),) * (l - len(prev.bundle))
                    dmat = family.bundle_distances(Bundle(tuple(prev.bundle) + zeros))
                    yield nearest(dmat)
                    split = prev.partition.assignment.copy()
                    split[int(np.argmax(dmat[np.arange(m), split]))] = l - 1
                    yield split

            report = search(dataset, replace(cfg, l=l, n=n),
                            lambda data: _Subspaces(data, l, n), seeds)
            # Floor: the epsilon column must never increase along l, even by
            # one ulp.
            if prev is None or report.objective < prev.objective:
                prev = report
            rows.append(SweepRow(l=l, n=n, epsilon=prev.objective))
    return rows
