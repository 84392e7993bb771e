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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bundles import Partition
from .errors import LengthMismatch, StructureMismatch
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
    m, length = vectors.shape
    if length != structure.signal_len:
        raise LengthMismatch(
            f"signals of length {length} vs structure length {structure.signal_len}"
        )
    return np.fft.fft(vectors, axis=1) / math.sqrt(structure.signal_len)


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


def _residuals_to_fibers(fib_all, gen_fibers):
    """Squared distance of every signal (rows of fib_all) to the fiber span;
    with no generators ``rec`` is all zeros and ``res`` is ``fib_all`` exactly."""
    coeff = np.einsum("mkt,skt->msk", fib_all, gen_fibers.conj())
    rec = np.einsum("msk,skt->mkt", coeff, gen_fibers)
    res = fib_all - rec
    return np.real(np.einsum("mkt,mkt->m", res, res.conj()))


def _fiber_distances(fib_all, generators, structure):
    """(G, count) squared distances of the fibers to G models, each given by
    its (s, M) generator spectra.  One model per call: einsum's complex sums
    over a stack of models run slower than model by model."""
    return np.stack([_residuals_to_fibers(fib_all, _fibers_from_spectra(g, structure))
                     for g in generators])


def best_sis_stack(fibers, structure: ShiftStructure, n):
    """Optimal shift-invariant models of length <= n for G fiber blocks, in
    one stacked eigensolve.

    ``fibers`` yields each block's (m_g, K, L) fibers.  Per block and frequency
    class w the L x L fiber covariance
    ``C(w)_ts = sum_i fhat_i(w + K t) conj(fhat_i(w + K s))`` is formed, and
    all G * K covariances are eigendecomposed in one call.  Their eigenvalues
    are the spectra of the m_g x m_g Gramians (cut or zero-padded), so
    ``spectral.leading_cut`` grouped by block reads each block's rank at
    every w, its error and its ``degenerate`` flag.  The top ``rank[g, w]``
    eigenvectors are the generator fibers, orthonormal per frequency.  A
    block's results do not depend on the other blocks; an empty block gets
    (0, M) generators and error 0, and is never degenerate.

    Returns ``(generators, spectrum, rank, error, degenerate)``:
    ``generators[g]`` is a read-only (s_g, M) array of generator spectra;
    the rest is ``leading_cut``'s, with (G, K) ranks.
    """
    num_freqs, num_aliases = structure.num_freqs, structure.num_aliases
    covs, counts = [], []
    for fib in fibers:
        covs.append(np.einsum("ikt,iks->kts", fib, fib.conj()))
        counts.append(fib.shape[0])
    eig = sym_eigen(np.stack(covs).reshape(-1, num_aliases, num_aliases))
    vals = eig.eigenvalues.reshape(len(counts), num_freqs, num_aliases)
    spectrum, rank, error, degenerate = leading_cut(vals, counts, n)
    rank.flags.writeable = False
    vecs = eig.eigenvectors.reshape(len(counts), num_freqs, num_aliases, num_aliases)
    # Block g keeps its top max_w rank[g, w] eigenvectors as generators,
    # zeroed at the frequencies whose rank is lower: (G, keep, K, L) fibers.
    keep = rank.max(axis=1, initial=0)
    width = int(keep.max(initial=0))
    active = np.arange(width)[None, :, None] < rank[:, None, :]
    spectra = _spectra_from_fibers(vecs[..., :width].transpose(0, 3, 1, 2)
                                   * active[..., None])
    spectra.flags.writeable = False
    generators = [spectra[g, :k] for g, k in enumerate(keep.tolist())]
    return generators, spectrum, rank, error, degenerate


def best_sis(dataset: DataSet, structure: ShiftStructure, n) -> SISFit:
    """Optimal shift-invariant model of length <= n with its exact error.

    ``best_sis_stack`` on one block: per frequency class w the L x L fiber
    covariance is eigendecomposed, all K classes in one stacked call, and
    ``spectral.leading_cut`` reads the rank at each w, the error and the
    ``degenerate`` flag off all K, as ``best_fit_subspace`` does off its one.
    The generators form a Parseval frame.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    generators, spectrum, rank, error, degenerate = best_sis_stack(
        [_signal_fibers(dataset, structure)], structure, n)
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
    """(m, l) squared distances of the signals to each shift-invariant model."""
    return _fiber_distances(_signal_fibers(dataset, structure),
                            [mo.generators for mo in models], structure).T


class _ShiftInvariantCells:
    """The alternation maps for l shift-invariant models of length <= n.

    The spectra are computed once; a step's cells take their rows and are
    fitted by ``best_sis_stack``, and a model is its generator spectra.  The
    winner's refit goes through ``best_sis``.
    """

    def __init__(self, dataset, structure, l, n):
        self.dataset, self.structure, self.l, self.n = dataset, structure, l, n
        self.spectra = _unitary_spectra(dataset.vectors, structure)
        self.fibers = _fibers_from_spectra(self.spectra, structure)

    def fit(self, cells):
        generators, _, _, error, _ = best_sis_stack(
            (_fibers_from_spectra(self.spectra.take(idx, axis=0), self.structure)
             for idx in cells), self.structure, self.n)
        return generators, error

    def distances(self, generators):
        return _fiber_distances(self.fibers, generators, self.structure)

    def refit(self, assignment):
        fits = [best_sis(self.dataset.subset(idx), self.structure, self.n)
                for idx in Partition(assignment, self.l).cells()]
        return (tuple(f.model for f in fits), float(np.sum([f.error for f in fits])),
                [f.degenerate for f in fits])

    def bundle_distances(self, models):
        return self.distances([mo.generators for mo in models]).T


def solve_sis_bundle(dataset: DataSet, structure: ShiftStructure,
                     cfg: SolveConfig) -> SolveReport:
    """Alternating search over bundles of ``cfg.l`` shift-invariant models of
    length <= ``cfg.n``.

    The Euclidean solver's lockstep search (``solver.search``) with
    per-frequency eigenproblems as the cellwise fitting step and fiber-space
    projections as the distance.  The report's ``bundle`` holds a tuple of
    SISModel components.
    """
    return search(dataset, cfg, lambda data: _ShiftInvariantCells(data, structure, cfg.l, cfg.n))
