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
fits the live chains' cells with one stacked eigensolve and measures their
models with one distances call, and chains that stop drop out.  A step's
results for a chain depend on its partition alone, so chains that meet
share one fit of their partition, as do partitions met again one step
later; reports keep their bits.  A tall search screens its cold restarts on
a sample of the points and finishes only the best of them on all the data.
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
from .subspace import DataSet, best_fit_stack, complement_rows

INIT_STRATEGIES = ("random_partition", "farthest_point")

BRUTE_FORCE_GUARD = 10**7

# The safety cap on a chain's alternation steps.
MAX_ITERS = 1000

# A search over at least TALL_RATIO * SAMPLE_PER_CELL * l points screens its
# cold restarts on SAMPLE_PER_CELL * l of them (``_sample_size``).
SAMPLE_PER_CELL = 1000
TALL_RATIO = 3


@dataclass(frozen=True)
class SolveConfig:
    """Search parameters.

    l : number of subspaces in the bundle (>= 1)
    n : maximum subspace dimension (>= 0)
    restarts : independent seeded starts; the best final objective wins
    seed : base seed (>= 0); restart r uses the stream seeded by (seed, r)
    init_strategy : 'random_partition' (uniform iid cell labels) or
        'farthest_point' (greedy seeding by the family's distances)

    Every chain stops after at most ``MAX_ITERS`` alternation steps.  Tall
    data and l >= m change a search's starts (see ``search``); no field
    selects either.
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

    ``objective`` is the final gamma of the winning chain (at a fixed point,
    the nearest-subspace error up to ``STOP_TOL`` times the data energy).
    The winner is a cold chain or a warm seed, so ``objective`` is at most
    the minimum of ``per_restart_objectives`` (the cold restarts only), and
    below it when a warm seed wins.  ``objective_trace`` holds the winning
    chain's gamma per iteration, strictly decreasing except possibly its
    final entry.  ``residuals_sq`` holds each point's squared distance to
    its member of ``bundle``.

    When the search screens its restarts (tall data, see ``search``),
    ``per_restart_objectives`` hold each restart's bundle, fitted on the
    sample, measured on all the data, and ``iterations_per_restart`` its
    steps on the sample.  The one cold chain on all the data starts from the
    nearest partition of the lowest of these bundles, so ``objective`` is
    at most their minimum plus ``STOP_TOL`` times the data energy.
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


def _cells(labels, l):
    """The cells of each partition (row) of ``labels``, cell-major: cell 0
    of every partition, then cell 1, ...  One stable sort of the stacked
    labels, in the smallest type holding l - 1, finds them, each listing
    its points in index order."""
    count = len(labels)
    order = np.argsort(labels.astype(np.min_scalar_type(l - 1)), axis=1, kind="stable").ravel()
    labels = labels + np.arange(0, count * l, l)[:, None]
    ends = np.bincount(labels.ravel(), minlength=count * l).cumsum().tolist()
    starts = [0] + ends[:-1]
    return [order[starts[c]:ends[c]] for i in range(l) for c in range(i, count * l, l)]


def _nearest(dist, l, count):
    """Each of ``count`` bundles' nearest partition and nearest error, from
    the cell-major distance rows of their models: one ``nearest_with_min``
    pass, each error the sum of its own bundle's minima."""
    moved, minima = nearest_with_min(dist.reshape(l, -1))
    return moved.reshape(count, -1), minima.reshape(count, -1).sum(axis=1)


def _step(live, family, tol, key_type, memo):
    """One alternation step of every live chain; returns those that go on.

    Everything a step computes for a chain depends on its partition alone,
    so ``memo`` maps a partition (the bytes of its labels as ``key_type``,
    which holds every one) to its ``(gamma, bar, next assignment)``.  Only
    the distinct partitions not in it are fitted, in one ``fit`` call of
    their cells, cell-major (``_cells``), so the distance rows of one cell
    number are one contiguous run and every partition is reassigned by one
    ``nearest_with_min`` pass (``_nearest``).  Each gamma sums its own l
    cell errors in cell order and each nearest error sums its own minima
    from that pass, so no chain's arithmetic depends on which partitions
    share the step.  Each chain then reads its own entry and runs its own
    stop test and descent check.  A chain that meets another, or a
    partition some chain had in the previous step, calls neither map.  At
    the end of the step ``memo`` keeps only this step's partitions.
    """
    l = family.l
    keys = [chain.assignment.astype(key_type).tobytes() for chain in live]
    fresh = {key: chain.assignment for key, chain in zip(keys, live) if key not in memo}
    if fresh:
        count = len(fresh)
        models, errors = family.fit(_cells(np.array(list(fresh.values())), l))
        gammas = np.ascontiguousarray(errors.reshape(l, count).T).sum(axis=1).tolist()
        moved, nearest = _nearest(family.distances(models), l, count)
        memo.update(zip(fresh, zip(gammas, (nearest + tol).tolist(), moved)))
    going = []
    for chain, key in zip(live, keys):
        gam, bar, assignment = memo[key]
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
    for key in memo.keys() - set(keys):
        del memo[key]
    return going


def _lockstep(starts, family, tol, max_iters):
    """Run one alternation chain from each start, all in lockstep.

    ``family`` supplies the maps of a model family (see ``search``).  A chain
    stops at a fixed point (gamma within ``tol`` of the nearest-model error)
    or after ``max_iters`` steps.  Returns the chains in the order of
    ``starts``.  The memo that lets chains share a partition's step (see
    ``_step``) lives for this one call and holds no models, so it serves
    every model family unchanged.
    """
    # Labels fit the smallest unsigned type holding l - 1: exact, and small.
    key_type = np.min_scalar_type(family.l - 1)
    chains = [_Chain(a) for a in starts]
    live, memo = chains, {}
    for _ in range(max_iters):
        if not live:
            break
        live = _step(live, family, tol, key_type, memo)
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


def _sample_size(m, l):
    """The screen's rule: the number of points a search over m points in l
    cells screens its cold restarts on, or 0 when they run on all the data.

    A tall search (m at least ``TALL_RATIO`` times the sample) draws
    ``SAMPLE_PER_CELL`` points per cell.  The rule reads the sizes alone, so
    it cannot depend on the data's scale.
    """
    size = SAMPLE_PER_CELL * l
    return size if m >= TALL_RATIO * size else 0


def _cold_starts(family, m, cfg):
    """The initial partitions of ``cfg.restarts`` cold restarts on m points;
    restart r draws from the stream seeded by ``(cfg.seed, r)``."""
    rngs = [np.random.default_rng((cfg.seed, r)) for r in range(cfg.restarts)]
    if cfg.init_strategy == "random_partition":
        return [rng.integers(0, cfg.l, size=m).astype(np.intp) for rng in rngs]
    return _farthest_point_starts(family, m, [rng.integers(m) for rng in rngs])


def search(dataset, cfg: SolveConfig, family_of, seeds=()) -> SolveReport:
    """Multi-start alternating search over any model family.

    ``family_of(data, l, n)`` returns the four maps of the family of l
    models of dimension <= n on ``data``, which is ``dataset`` divided by a
    power of two (see ``_prescaled``; data whose largest entry lies in
    [1, 2) are left as they are), or a sample of its points:

    * ``l``, the number of cells;
    * ``fit(cells) -> (models, errors)``: the optimal model of each index
      array and its exact error (a length-G array); an empty cell's model
      fits nothing and has error 0;
    * ``distances(models) -> (G, m)``: squared point-model distances, each
      row from its model alone; they need only agree with ``refit``'s to
      round-off (``_Subspaces`` measures along each fit's trailing
      eigenvectors, not by residuals to its basis);
    * ``refit(assignment) -> (bundle, flags, distances)``: the public fit of
      one partition, its per-cell degeneracy flags and the (m, l) squared
      distances of the points to its members.

    Farthest-point seeding fits every cold restart's newest seed point alone
    in one ``fit`` call per round and measures them in one ``distances`` call;
    no restart's seeds depend on which restarts share the round.

    ``seeds`` holds warm starting partitions, run after the cold ones, all
    in one lockstep (``_lockstep``).  When ``cfg.l >= m``, one cell per
    point (``np.arange(m)``, at error 0 for any n >= 1) comes first among
    them.  The lowest objective wins, the earliest chain on ties, so a cold
    chain beats a warm seed.  Only the winner is refitted into a bundle, and
    its pair is re-verified post hoc: its gamma must match the nearest-model
    error of that bundle.  This check and each chain's stop test allow
    ``STOP_TOL`` times the energy of the data (its total squared norm, the
    zero model's error).  The refit's distances give ``residuals_sq``.
    Objectives, trace and residuals are at the data's own scale.

    A tall search (``_sample_size``) screens its cold restarts.  They run in
    one lockstep on a sample of the points, drawn without replacement from
    the stream seeded by ``(cfg.seed, cfg.restarts)``, with the sample's own
    stop tolerance.  Each restart's final partition is fitted on the sample
    (one ``fit`` call) and measured on all the data (one ``distances``
    call); its bundle error there is its entry of ``per_restart_objectives``
    and its sample steps its entry of ``iterations_per_restart``.  The
    nearest partition of the lowest of these bundles, the earliest on ties,
    is the one cold chain of the full-data lockstep.  Otherwise every cold
    restart is a chain of it, and ``per_restart_objectives`` holds their
    final gammas.
    """
    if dataset.m == 0:
        raise EmptyDataSet("a search requires at least one data vector")
    scaled, e = _prescaled(dataset)
    family = family_of(scaled, cfg.l, cfg.n)
    if cfg.l >= scaled.m:
        seeds = [np.arange(scaled.m, dtype=np.intp), *seeds]
    # Scaled before the sum: the energy can overflow while every norm is finite.
    tol = float((STOP_TOL * scaled.norms_sq()).sum())

    size = _sample_size(scaled.m, cfg.l)
    if size:
        rng = np.random.default_rng((cfg.seed, cfg.restarts))
        sample = scaled.subset(np.sort(rng.choice(scaled.m, size, replace=False)))
        screen = family_of(sample, cfg.l, cfg.n)
        restarts = _lockstep(_cold_starts(screen, size, cfg), screen,
                             float((STOP_TOL * sample.norms_sq()).sum()), MAX_ITERS)
        models, _ = screen.fit(_cells(np.array([r.fitted for r in restarts]), cfg.l))
        starts, errors = _nearest(family.distances(models), cfg.l, cfg.restarts)
        chains = _lockstep([starts[int(np.argmin(errors))], *seeds], family, tol, MAX_ITERS)
    else:
        chains = _lockstep([*_cold_starts(family, scaled.m, cfg), *seeds], family, tol, MAX_ITERS)
        restarts = chains[:cfg.restarts]
        errors = [r.objective for r in restarts]
    best = min(chains, key=lambda c: c.objective)
    bundle, flags, dmat = family.refit(best.fitted)
    converged = best.converged and abs(best.objective - float(dmat.min(axis=1).sum())) <= tol
    return SolveReport(
        bundle=bundle,
        partition=Partition(best.fitted, cfg.l),
        objective=_unscaled(best.objective, e),
        per_restart_objectives=tuple(_unscaled(errors, e)),
        iterations_per_restart=tuple(len(r.trace) for r in restarts),
        objective_trace=tuple(_unscaled(best.trace, e)),
        degenerate_flags=tuple(flags),
        converged=bool(converged),
        residuals_sq=tuple(_unscaled(dmat[np.arange(scaled.m), best.fitted], e)),
    )


class _Subspaces:
    """The alternation maps for subspaces of dimension <= n in l cells.

    A step's cells are fitted by ``subspace.best_fit_stack``, and its
    models are the eigenvector stack and ranks that returns.  Their
    distances come from one ``complement_rows`` call along each model's
    trailing rows.  A rank-0 model gets each point's squared norm, not its
    norm along its own eigenvectors, so all of them tie exactly (with the
    zero subspace's residual bits) and the tie goes to the lowest cell.  A
    rank-N model has no trailing rows and distance exactly 0.  The winner's
    refit goes through ``fit_partition`` and its distances through
    ``distance_matrix``, so reports keep the residual kernel's bits; both
    are looked up by their module names at each call, so wrappers installed
    on them see it.
    """

    def __init__(self, dataset, l, n):
        self.dataset, self.l, self.n = dataset, l, n
        self.x = dataset.vectors

    def fit(self, cells):
        rows, rank, _, error, _ = best_fit_stack((self.x.take(idx, axis=0) for idx in cells),
                                                 self.n)
        return (rows, rank), error

    def distances(self, models):
        return complement_rows(self.x, *models)

    def refit(self, assignment):
        bundle, _, flags = fit_partition(self.dataset, Partition(assignment, self.l), self.n)
        return bundle, flags, distance_matrix(self.dataset, bundle)


def solve(dataset: DataSet, cfg: SolveConfig) -> SolveReport:
    """Multi-start alternating search for an optimal bundle of subspaces.

    Each restart draws an initial partition per ``cfg.init_strategy``, then
    alternates cellwise best fits with nearest-subspace reassignment until
    gamma and the nearest-subspace error agree (see ``search``).  The
    certificate pair of the winning restart is re-verified post hoc with one
    extra fit/assignment evaluation.
    """
    return search(dataset, cfg, _Subspaces)


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


def _split(kept, l):
    """The partition of report ``kept`` with its worst-fit point, the lowest
    on ties, moved to cell l - 1.  Plain alternation never repopulates an
    empty cell, so growing l needs explicit candidates such as this."""
    moved = kept.partition.assignment.copy()
    moved[int(np.argmax(kept.residuals_sq))] = l - 1
    return moved


def sparsity_curve(dataset: DataSet, l_values, n_values, cfg: SolveConfig):
    """Sweep (l, n) pairs; each row reports the achieved error epsilon.

    The data are divided by 2^e once (``_prescaled``), and every row's
    searches run on the result, which each leaves as it is; each epsilon is
    the kept objective brought back by 4^e (``_unscaled``).  Each row runs
    ``search`` (twice after the first n), so its winners are refitted and
    certificate-checked as a fit's are.  For each n, l is visited in
    increasing order, and each row after the first is seeded with the
    previous row's certificate partition, its worst-fit point (read off the
    report's ``residuals_sq``) moved to the new cell (``search`` adds one
    cell per point once l >= m): the chain of certificates that the floor
    along l keeps from this n's own searches, so these searches are those
    of a sweep over this one n.  Certificates
    kept from elsewhere warm-start a second search of the row, with one
    cold restart: the partition of the certificate kept for the same l at
    the previous n, and the split of the previous row's certificate when
    that is not its own n's.  Two floors keep the kept certificates: a row
    whose searches end above the previous row's objective keeps the
    previous certificate, and a row that ends above the (l, previous n)
    objective keeps that one, since a model of dimension <= n - 1 is also
    one of dimension <= n.  So the epsilon column never increases along l
    or along n, and no row ends above the same row of a sweep over its one
    n.  Rows are ordered by (n, l).  Non-integer sizes raise
    ``InvalidSpec``.
    """
    l_values, n_values = sorted(set(l_values)), sorted(set(n_values))
    if not l_values or not n_values:
        raise InvalidSpec("l and n ranges must be nonempty")

    # Each row's config checks its l and n, before any search runs.
    grid = [[replace(cfg, l=l, n=n) for l in l_values] for n in n_values]
    scaled, e = _prescaled(dataset)
    rows = []
    below = [None] * len(l_values)  # per l, the certificate kept at the previous n
    for configs in grid:
        # The previous row's certificate, and the one the floor along l
        # alone kept from this n's own searches.
        prev = chain = None
        for i, row in enumerate(configs):
            seeds = [] if chain is None else [_split(chain, row.l)]
            reports = [search(scaled, row, _Subspaces, seeds)]
            # The warm search runs the one cold restart a search must have;
            # below the screen threshold the row's own search already ran it.
            if below[i] is not None:
                warm = [] if prev is chain else [_split(prev, row.l)]
                warm.append(below[i].partition.assignment)
                reports += [search(scaled, replace(row, restarts=1), _Subspaces, warm), below[i]]
            if chain is None or reports[0].objective < chain.objective:
                chain = reports[0]
            # Floors: the epsilon column must never increase along l or n,
            # even by one ulp.
            for report in reports:
                if prev is None or report.objective < prev.objective:
                    prev = report
            below[i] = prev
            rows.append(SweepRow(l=row.l, n=row.n, epsilon=_unscaled(prev.objective, e)))
    return rows
