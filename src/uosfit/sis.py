"""Finite shift-invariant spaces under circular shifts.

A subspace of length-M signals invariant under circular shift by L splits,
in the unitary DFT domain, into K = M/L independent "fibers": for each
frequency class w in {0,...,K-1} the L aliased bins w + K*t carry one
vector in C^L, and shifting by L multiplies the whole fiber by a unimodular
constant.  Optimal models therefore come from per-frequency Hermitian
eigenproblems on the Gramian G(w)_ij = sum_t fhat_i(w+Kt) conj(fhat_j(w+Kt)):
the model error is the sum of the trailing eigenvalues over all w, and the
generators built from the leading eigenpairs form a Parseval frame (their
own Gramian is a 0/1 orthogonal projection at every w).

The fit solves the dual L x L problem instead: the fiber covariance
C(w)_ts = sum_i fhat_i(w+Kt) conj(fhat_i(w+Ks)) has the same nonzero
eigenvalues as G(w), and its orthonormal eigenvectors are the generator
fibers themselves (Aldroubi, Cabrelli, Hardin, Molter, "Optimal shift
invariant spaces and their Parseval frame generators", ACHA 2007).

Real signals have conjugate-symmetric spectra, fhat(M - j) = conj fhat(j),
so class K - w is class w conjugated with its aliases reversed (P: t ->
L - 1 - t), and C(K - w) = P conj(C(w)) P^T.  For real data (a float64
``DataSet``) the fits and distances therefore work on classes 0..K//2
only: class K - w takes class w's eigenvalues and rank, its generator
fibers are P conj of class w's, and its distance term is class w's doubled.
The self-conjugate classes (class 0, and class K/2 when K is even) are
solved as real symmetric problems in a unitary basis that makes their
fibers real.  So real data get exactly conjugate-symmetric generator
spectra, which means generators that are real in time.  Complex data
(spectra input) run the same code with every class solved on its own and
none mirrored.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bundles import Partition
from .errors import LengthMismatch, StructureMismatch, model_dimension
from .solver import SolveConfig, SolveReport, search
from .spectral import leading_cut, sym_eigen
from .subspace import DataSet


@dataclass(frozen=True)
class ShiftStructure:
    """Signals of length M under circular shift by L (L must divide M)."""

    signal_len: int
    shift_step: int

    def __post_init__(self):
        try:
            operator.index(self.signal_len), operator.index(self.shift_step)
        except TypeError:
            raise StructureMismatch("signal_len and shift_step must be integers") from None
        if self.signal_len < 1 or self.shift_step < 1:
            raise StructureMismatch("signal_len and shift_step must be >= 1")
        if self.signal_len % self.shift_step != 0:
            raise StructureMismatch(
                f"shift step {self.shift_step} does not divide signal length {self.signal_len}"
            )

    @property
    def num_freqs(self):
        """K = M / L frequency classes."""
        return self.signal_len // self.shift_step

    @property
    def num_aliases(self):
        """L alias offsets per frequency class."""
        return self.shift_step


@dataclass(frozen=True)
class FreqGramian:
    """Per-frequency Hermitian PSD Gramians with their eigendecompositions.

    ``matrices[w]`` is m x m; ``eigenvalues[w]`` is sorted descending and
    clamped at zero; ``eigenvectors[w][:, i]`` pairs with ``eigenvalues[w][i]``.
    """

    structure: ShiftStructure
    matrices: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SISModel:
    """A shift-invariant model: generator spectra forming a Parseval frame.

    ``generators`` has shape (s, M) holding the unitary-DFT spectra of the
    s <= n generators; ``per_freq_rank[w]`` is the local dimension at
    frequency class w.
    """

    structure: ShiftStructure
    generators: np.ndarray
    per_freq_rank: np.ndarray

    @property
    def length(self):
        return self.generators.shape[0]


@dataclass(frozen=True)
class SISFit:
    """Best-fit result; ``spectrum[w]`` is the m x m Gramian's spectrum at w,
    sorted descending and clamped at zero."""

    model: SISModel
    error: float
    spectrum: np.ndarray
    degenerate: bool


def _unitary_spectra(vectors, structure):
    """(m, M) unitary DFT spectra of the rows.  Real rows are transformed
    by ``rfft`` and their upper bins set to the conjugates of the lower
    ones, so their spectra are conjugate-symmetric bit for bit."""
    m, length = vectors.shape
    if length != structure.signal_len:
        raise LengthMismatch(
            f"signals of length {length} vs structure length {structure.signal_len}"
        )
    root = math.sqrt(length)
    if np.iscomplexobj(vectors):
        return np.fft.fft(vectors, axis=1) / root
    half = np.fft.rfft(vectors, axis=1) / root
    return np.concatenate([half, half[:, (length - 1) // 2:0:-1].conj()], axis=1)


def _fibers_from_spectra(spectra, structure):
    """(m, M) spectra -> (m, K, L) fibers; bin w + K*t sits at [. , w, t]."""
    m = spectra.shape[0]
    lk = (structure.num_aliases, structure.num_freqs)
    return spectra.reshape(m, *lk).transpose(0, 2, 1)


def _spectra_from_fibers(fibers):
    """Inverse of _fibers_from_spectra, over any leading axes."""
    num_freqs, num_aliases = fibers.shape[-2:]
    return fibers.swapaxes(-1, -2).reshape(fibers.shape[:-2] + (num_freqs * num_aliases,))


def _signal_fibers(dataset, structure):
    return _fibers_from_spectra(_unitary_spectra(dataset.vectors, structure), structure)


def _is_real(dataset):
    return not np.iscomplexobj(dataset.vectors)


@dataclass(frozen=True)
class _Classes:
    """The frequency classes a fit solves, and how the others follow.

    Classes ``0..solved-1`` are solved; class w takes the eigenvalues and
    rank of class ``source[w]``, and ``weights[v]`` counts the classes that
    solved class v stands for.  The classes of ``selfconj`` (real signals
    only) are solved as real symmetric problems, the covariance ``U^H C U``
    of the real coordinates ``U^H f`` in the real basis ``U = basis[r]`` of
    the r-th of them, whose eigenvectors y give the generator fibers
    ``U y``.  Complex signals solve every class as a complex Hermitian
    problem, each standing for itself.
    """

    solved: int
    source: np.ndarray
    weights: np.ndarray
    selfconj: np.ndarray
    basis: np.ndarray


def _real_basis(mirror):
    """The unitary L x L basis in which the fibers of a self-conjugate class
    are real: ``mirror`` is the class's alias involution pi (bin w + K t
    mirrors to bin w + K pi(t)), so a fiber of real data has f = P conj f.
    Column t is e_t where pi(t) = t; for each pair t < pi(t), column t is
    (e_t + e_pi(t))/sqrt 2 and column pi(t) is i (e_t - e_pi(t))/sqrt 2.
    Then U^H f is real, and for real y the fiber U y satisfies v = P conj v
    exactly: its entries at t and pi(t) are built from the same two
    products, y_t / sqrt 2 and y_pi(t) / sqrt 2, so they are conjugates bit
    for bit."""
    size = len(mirror)
    t = np.arange(size)
    first, fixed = t < mirror, t == mirror
    r = math.sqrt(0.5)
    u = np.zeros((size, size), dtype=np.complex128)
    u[t[fixed], t[fixed]] = 1.0
    a, b = t[first], mirror[first]
    u[a, a] = u[b, a] = r
    u[a, b], u[b, b] = 1j * r, -1j * r
    return u


@functools.lru_cache(maxsize=32)
def _classes(structure, real):
    """The class layout of ``structure`` for real or complex data."""
    num_freqs, num_aliases = structure.num_freqs, structure.num_aliases
    w = np.arange(num_freqs)
    # For real data class K - w mirrors class w; class 0 and, for even K,
    # class K/2 mirror themselves.
    source = np.minimum(w, -w % num_freqs) if real else w
    selfconj = w[-w % num_freqs == w] if real else w[:0]
    solved = int(source.max()) + 1
    # Bin j mirrors to bin (M - j) mod M; its alias is that bin // K.
    bins = selfconj[:, None] + num_freqs * np.arange(num_aliases)
    mirror = (-bins % structure.signal_len) // num_freqs
    layout = _Classes(solved, source, np.bincount(source).astype(np.float64), selfconj,
                      np.array([_real_basis(pi) for pi in mirror], dtype=np.complex128)
                      .reshape(-1, num_aliases, num_aliases))
    for arr in (layout.source, layout.weights, layout.selfconj, layout.basis):
        arr.flags.writeable = False
    return layout


def _fiber_gramian(fib, structure):
    """FreqGramian of the (count, K, L) fibers: one stacked eigenproblem."""
    grams = np.einsum("ikt,jkt->kij", fib, fib.conj())
    if fib.shape[0]:
        eig = sym_eigen(grams)
        vals, vecs = np.maximum(eig.eigenvalues, 0.0), eig.eigenvectors
    else:
        vals = np.zeros((structure.num_freqs, 0))
        vecs = np.zeros((structure.num_freqs, 0, 0), dtype=np.complex128)
    for arr in (grams, vals, vecs):
        arr.flags.writeable = False
    return FreqGramian(structure, grams, vals, vecs)


def gramian(dataset: DataSet, structure: ShiftStructure) -> FreqGramian:
    """Per-frequency Gramian of the data under the unitary DFT convention.

    ``G(w)_ij = sum_t fhat_i(w + K t) conj(fhat_j(w + K t))`` so that the
    traces over all w sum to the total signal energy.
    """
    return _fiber_gramian(_signal_fibers(dataset, structure), structure)


def _model_fibers(model):
    return _fibers_from_spectra(model.generators, model.structure)


def _residuals_to_fibers(fib_all, gen_fibers, weights):
    """Squared distance of every signal (rows of fib_all) to the fiber span,
    each class's term counted ``weights[k]`` times; with no generators
    ``rec`` is all zeros and ``res`` is ``fib_all`` exactly."""
    coeff = np.einsum("mkt,skt->msk", fib_all, gen_fibers.conj())
    rec = np.einsum("msk,skt->mkt", coeff, gen_fibers)
    res = fib_all - rec
    return np.real(np.einsum("mkt,mkt,k->m", res, res.conj(), weights))


def _fiber_distances(fib_all, generators, structure, real):
    """(G, count) squared distances of the fibers to G models, each given by
    its (s, M) generator spectra, over the solved classes of ``_classes``:
    for real signals class K - w's term is class w's doubled, which is exact.
    One model per call: einsum's complex sums over a stack of models run
    slower than model by model, and memory stays that of one model.  The
    fibers are made contiguous (as the search family holds them), since the
    bits of einsum's sums depend on the layout."""
    classes = _classes(structure, real)
    fib = np.ascontiguousarray(fib_all[:, :classes.solved])
    return np.stack([_residuals_to_fibers(
        fib, _fibers_from_spectra(g, structure)[:, :classes.solved], classes.weights)
        for g in generators])


def best_sis_stack(fibers, structure: ShiftStructure, n, *, real):
    """Optimal shift-invariant models of length <= n for G fiber blocks, in
    one stacked eigensolve.

    ``fibers`` yields each block's (m_g, K, L) fibers (``_signal_fibers``);
    ``real`` says they are those of real signals, as for a float64
    ``DataSet``.  Per block the L x L fiber covariance
    ``C(w)_ts = sum_i fhat_i(w + K t) conj(fhat_i(w + K s))`` is formed for
    each solved class w of ``_classes(structure, real)``: all K classes of
    complex signals, classes 0..K//2 of real ones.  A self-conjugate class
    takes its covariance in its real basis U, the real part of
    ``U^H C(w) U``, which is that of the real coordinates U^H f.  The
    covariances of all blocks and classes are eigendecomposed in one call,
    the real symmetric ones held as complex with zero imaginary parts; their
    eigenvectors y are taken real.  Their eigenvalues are the spectra of the
    m_g x m_g Gramians (cut or zero-padded); class K - w of real signals
    takes class w's.  So ``spectral.leading_cut`` grouped by block reads
    each block's rank at every one of the K classes, its error and its
    ``degenerate`` flag.  The top ``rank[g, w]`` eigenvectors are the
    generator fibers, orthonormal per frequency.

    Phases: the fiber of a class solved as a complex problem is the
    eigenvector with its largest-magnitude entry real and positive
    (``sym_eigen``'s convention).  A self-conjugate class's fiber is U y for
    the real basis U of ``_real_basis``, with y the real eigenvector whose
    largest-magnitude entry is positive.  The fiber of a mirrored class
    K - w is P conj of class w's: the same entries reversed and conjugated,
    so its pivot, at the reversed alias, is real and positive too.  Hence
    real signals get exactly conjugate-symmetric generator spectra,
    ``g[(M - j) % M] == conj(g[j])``.

    A block's results do not depend on the other blocks; an empty block
    gets (0, M) generators and error 0, and is never degenerate.

    Returns ``(generators, spectrum, rank, error, degenerate)``:
    ``generators[g]`` is a read-only (s_g, M) array of generator spectra;
    the rest is ``leading_cut``'s, with (G, K) ranks.
    """
    num_aliases = structure.num_aliases
    classes = _classes(structure, real)
    covs, counts = [], []
    for fib in fibers:
        fib = fib[:, :classes.solved]
        covs.append(np.einsum("ikt,iks->kts", fib, fib.conj()))
        counts.append(fib.shape[0])
    covs = np.stack(covs)
    if len(classes.selfconj):
        basis = classes.basis
        covs[:, classes.selfconj] = np.einsum(
            "gkas,ksb->gkab", np.einsum("kta,gkts->gkas", basis.conj(), covs[:, classes.selfconj]),
            basis).real
    eig = sym_eigen(covs.reshape(-1, num_aliases, num_aliases))
    vals = eig.eigenvalues.reshape(covs.shape[:-1])
    vecs = eig.eigenvectors.reshape(covs.shape)
    spectrum, rank, error, degenerate = leading_cut(vals[:, classes.source], counts, n)
    rank.flags.writeable = False
    # Block g keeps its top max_w rank[g, w] eigenvectors as generators,
    # zeroed at the frequencies whose rank is lower: (G, keep, K, L) fibers.
    keep = rank.max(axis=1, initial=0)
    width = int(keep.max(initial=0))
    gen_fibers = vecs[:, classes.source, :, :width]
    if len(classes.selfconj):
        gen_fibers[:, classes.selfconj] = basis @ gen_fibers[:, classes.selfconj].real
    # Classes past the solved ones are mirrors: P conj of their source.
    gen_fibers[:, classes.solved:] = gen_fibers[:, classes.solved:, ::-1].conj()
    active = np.arange(width)[None, :, None] < rank[:, None, :]
    spectra = _spectra_from_fibers(gen_fibers.transpose(0, 3, 1, 2) * active[..., None])
    spectra.flags.writeable = False
    generators = [spectra[g, :k] for g, k in enumerate(keep.tolist())]
    return generators, spectrum, rank, error, degenerate


def best_sis(dataset: DataSet, structure: ShiftStructure, n) -> SISFit:
    """Optimal shift-invariant model of length <= n with its exact error.

    ``best_sis_stack`` on one block: per solved frequency class the L x L
    fiber covariance is eigendecomposed, and ``spectral.leading_cut`` reads
    the rank at each of the K classes, the error and the ``degenerate``
    flag off all of them, as ``best_fit_subspace`` does off its one.  The
    generators form a Parseval frame; for real data their spectra are
    exactly conjugate-symmetric, so the generators are real in time.
    ``n`` must be an integer >= 0 (a bool counts as one), else
    ``InvalidSpec``.
    """
    generators, spectrum, rank, error, degenerate = best_sis_stack(
        [_signal_fibers(dataset, structure)], structure, model_dimension(n),
        real=_is_real(dataset))
    model = SISModel(structure=structure, generators=generators[0], per_freq_rank=rank[0])
    return SISFit(model=model, error=float(error[0]), spectrum=spectrum[0],
                  degenerate=bool(degenerate[0]))


def generator_gramian(model: SISModel) -> FreqGramian:
    """Gramian of the model's own generators (0/1 spectrum when Parseval)."""
    return _fiber_gramian(_model_fibers(model), model.structure)


def project_sis(model: SISModel, f) -> np.ndarray:
    """Orthogonal projection of a signal onto the model (complex time domain).

    Idempotent, and commutes with circular shift by the model's shift step.
    """
    f = np.asarray(f)
    if f.shape != (model.structure.signal_len,):
        raise LengthMismatch(
            f"signal of shape {f.shape} vs length {model.structure.signal_len}"
        )
    root = math.sqrt(model.structure.signal_len)
    spec = np.fft.fft(f) / root
    fib = _fibers_from_spectra(spec[None, :], model.structure)[0]
    gen = _model_fibers(model)
    coeff = np.einsum("kt,skt->sk", fib, gen.conj())
    proj = np.einsum("sk,skt->kt", coeff, gen)
    out_spec = _spectra_from_fibers(proj[None, :, :])[0]
    return np.fft.ifft(out_spec) * root


def sis_distance_matrix(dataset: DataSet, models, structure: ShiftStructure) -> np.ndarray:
    """(m, l) squared distances of the signals to each shift-invariant model.

    Real signals are measured on classes 0..K//2, each mirrored class
    counted twice, when every model's generator spectra are exactly
    conjugate-symmetric (as those of real data are); otherwise, and for
    complex signals, on all K classes.
    """
    generators = [mo.generators for mo in models]
    mirror = -np.arange(structure.signal_len) % structure.signal_len
    real = _is_real(dataset) and all(np.array_equal(g[:, mirror], g.conj()) for g in generators)
    return _fiber_distances(_signal_fibers(dataset, structure), generators, structure, real).T


class _ShiftInvariantCells:
    """The alternation maps for l shift-invariant models of length <= n.

    The fibers of the solved classes are computed once; a step's cells take
    their rows and are fitted by ``best_sis_stack``, and a model is its
    generator spectra.  The winner's refit goes through ``best_sis``, one
    cell at a time, and its distances through the step's own ``distances``.
    """

    def __init__(self, dataset, structure, l, n):
        self.dataset, self.structure, self.l, self.n = dataset, structure, l, n
        self.real = _is_real(dataset)
        classes = _classes(structure, self.real)
        self.fibers = np.ascontiguousarray(_signal_fibers(dataset, structure)[:, :classes.solved])

    def fit(self, cells):
        generators, _, _, error, _ = best_sis_stack(
            (self.fibers.take(idx, axis=0) for idx in cells), self.structure, self.n,
            real=self.real)
        return generators, error

    def distances(self, generators):
        return _fiber_distances(self.fibers, generators, self.structure, self.real)

    def refit(self, assignment):
        fits = [best_sis(self.dataset.subset(idx), self.structure, self.n)
                for idx in Partition(assignment, self.l).cells()]
        return (tuple(f.model for f in fits), [f.degenerate for f in fits],
                self.distances([f.model.generators for f in fits]).T)


def solve_sis_bundle(dataset: DataSet, structure: ShiftStructure,
                     cfg: SolveConfig) -> SolveReport:
    """Alternating search over bundles of ``cfg.l`` shift-invariant models of
    length <= ``cfg.n``.

    The Euclidean solver's lockstep search (``solver.search``) with
    per-frequency eigenproblems as the cellwise fitting step and fiber-space
    projections as the distance.  The report's ``bundle`` holds a tuple of
    SISModel components.
    """
    return search(dataset, cfg, lambda data, l, n: _ShiftInvariantCells(data, structure, l, n))
