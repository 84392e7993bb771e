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

from .bundles import Partition, distance_matrix, fit_partition, nearest_with_min
from .errors import EmptyDataSet, InvalidSpec, TooLarge, integer_sizes
from .spectral import STOP_TOL
from .subspace import DataSet, best_fit_stack, residual_rows

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
        lows = {"l": 1, "n": 0, "restarts": 1, "seed": 0}
        values = integer_sizes(**{name: getattr(self, name) for name in lows})
        for (name, low), value in zip(lows.items(), values):
            if value < low:
                raise InvalidSpec(f"{name} must be >= {low}")
            # Plain ints: a bool slices as a mask, a numpy integer can overflow.
            object.__setattr__(self, name, value)
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


def _farthest_point_starts(family, m, firsts):
    """Greedy seeding of one start per entry of ``firsts``, its first seed, in
    lockstep: each round fits every start's newest seed alone in one ``fit``
    call and measures them in one ``distances`` call.  The next seed is the
    argmax of the start's minimum distance to its seeds' models; each point
    joins its nearest seed, the lowest on ties.  Seeds are distinct points
    while any remain (so l >= m yields one cell per point); once the
    residuals all vanish the tie goes to the lowest unchosen index.  Past m
    seeds a repeated point adds a duplicate column, which never wins the tie.
    """
    shape = (len(firsts), m)
    chosen, mins = np.zeros(shape, dtype=bool), np.full(shape, np.inf)
    labels, newest = np.zeros(shape, dtype=np.intp), np.asarray(firsts, dtype=np.intp)
    for j in range(family.l):
        chosen[np.arange(len(firsts)), newest] = True
        dist = family.distances(family.fit(newest[:, None])[0])
        labels[dist < mins] = j
        np.minimum(mins, dist, out=mins)
        # Residuals are >= 0, so -1 rules out the chosen points.
        newest = np.where(chosen, -1.0, mins).argmax(axis=1)
    return list(labels)


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

    Farthest-point seeding fits every cold restart's newest seed point alone
    in one ``fit`` call per round and measures them in one ``distances`` call;
    no restart's seeds depend on which restarts share the round.

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

    rngs = [np.random.default_rng((cfg.seed, r)) for r in range(cfg.restarts)]
    if cfg.init_strategy == "random_partition":
        cold = [rng.integers(0, cfg.l, size=scaled.m).astype(np.intp) for rng in rngs]
    else:
        cold = _farthest_point_starts(family, scaled.m, [rng.integers(scaled.m) for rng in rngs])
    chains = _lockstep([*cold, *seeds(family)], family, tol, MAX_ITERS)
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
    cfg = SolveConfig(l, n)  # checks l and n, held as plain ints
    l, n = cfg.l, cfg.n
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

    Each row runs ``search`` (twice after the first n), so its winners are
    refitted and certificate-checked as a fit's are.  For each n, l is
    visited in increasing order, and each row after the first is seeded
    with the previous row's certificate partition, its worst-fit point
    moved to the new cell: the chain of certificates that the floor along l
    keeps from this n's own searches, so these searches are those of a
    sweep over this one n.  Certificates kept from elsewhere warm-start a
    second search of the row, with one cold restart: the partition of the
    certificate kept for the same l at the previous n, and the split of the
    previous row's certificate when that is not its own n's.  Two floors
    keep the kept certificates: a row whose searches end above the previous
    row's epsilon keeps the previous certificate, and a row that ends above
    the (l, previous n) epsilon keeps that one, since a model of dimension
    <= n - 1 is also one of dimension <= n.  So the epsilon column never
    increases along l or along n, and no row ends above the same row of a
    sweep over its one n.  Rows are ordered by (n, l).  Non-integer sizes
    raise ``InvalidSpec``.
    """
    l_values, n_values = sorted(set(l_values)), sorted(set(n_values))
    if not l_values or not n_values:
        raise InvalidSpec("l and n ranges must be nonempty")

    # Each row's config checks its l and n, before any search runs.
    grid = [[replace(cfg, l=l, n=n) for l in l_values] for n in n_values]
    m = dataset.m
    rows = []
    below = [None] * len(l_values)  # per l, the certificate kept at the previous n
    for configs in grid:
        # The previous row's certificate, and the one the floor along l
        # alone kept from this n's own searches.
        prev = chain = None
        for i, row in enumerate(configs):

            def family_of(data):
                return _Subspaces(data, row.l, row.n)

            def split(family, kept):
                # Plain alternation never repopulates an empty cell, so
                # growing l needs explicit candidates: the kept partition
                # with its worst-fit point, the lowest on ties, moved to
                # cell l - 1.
                moved = kept.partition.assignment.copy()
                dmat = family.bundle_distances(kept.bundle)
                moved[int(np.argmax(dmat[np.arange(m), moved]))] = row.l - 1
                return moved

            def seeds(family):
                # Once l >= m, one cell per point comes first.
                if row.l >= m:
                    yield np.arange(m, dtype=np.intp)
                if chain is not None:
                    yield split(family, chain)

            def warm(family):
                if prev is not chain:
                    yield split(family, prev)
                yield below[i].partition.assignment

            reports = [search(dataset, row, family_of, seeds)]
            # The warm search runs the one cold restart a search must have;
            # the row's own search has already run it.
            if below[i] is not None:
                reports += [search(dataset, replace(row, restarts=1), family_of, warm), below[i]]
            if chain is None or reports[0].objective < chain.objective:
                chain = reports[0]
            # Floors: the epsilon column must never increase along l or n,
            # even by one ulp.
            for report in reports:
                if prev is None or report.objective < prev.objective:
                    prev = report
            below[i] = prev
            rows.append(SweepRow(l=row.l, n=row.n, epsilon=prev.objective))
    return rows
