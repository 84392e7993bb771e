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
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .bundles import Partition
from .errors import EmptyDataSet, LengthMismatch, StructureMismatch
from .solver import SolveConfig, SolveReport, search
from .spectral import leading_cut, sym_eigen
from .subspace import DataSet


@dataclass(frozen=True)
class ShiftStructure:
    """Signals of length M under circular shift by L (L must divide M)."""

    signal_len: int
    shift_step: int

    def __post_init__(self):
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
    """Inverse of _fibers_from_spectra."""
    m, num_freqs, num_aliases = fibers.shape
    return fibers.transpose(0, 2, 1).reshape(m, num_freqs * num_aliases)


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


def _fiber_distances(fib_all, models):
    """(count, l) squared distances of the fibers to each model."""
    return np.stack([_residuals_to_fibers(fib_all, _model_fibers(mo)) for mo in models], axis=1)


def best_sis(dataset: DataSet, structure: ShiftStructure, n) -> SISFit:
    """Optimal shift-invariant model of length <= n with its exact error.

    Per frequency class w the L x L fiber covariance
    ``C(w)_ts = sum_i fhat_i(w + K t) conj(fhat_i(w + K s))`` is
    eigendecomposed, all K classes in one stacked call.  Its eigenvalues,
    cut or zero-padded to length m, are the spectrum of the m x m Gramian;
    ``spectral.leading_cut`` reads the rank at each w, the error and the
    ``degenerate`` flag off all K, as ``best_fit_subspace`` does off its one.
    The top ``rank[w]`` eigenvectors are the generator fibers, orthonormal
    per frequency, so the generators form a Parseval frame.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = dataset.m
    fib = _signal_fibers(dataset, structure)                       # (m, K, L)
    eig = sym_eigen(np.einsum("ikt,iks->kts", fib, fib.conj()))    # (K, L, L)
    lam, rank, error, degenerate = leading_cut(eig.eigenvalues, m, n)
    keep = int(rank.max())
    active = np.arange(keep)[:, None] < rank[None, :]              # (keep, K)
    gen_fibers = eig.eigenvectors[:, :, :keep].transpose(2, 0, 1) * active[:, :, None]
    spectra = _spectra_from_fibers(gen_fibers)
    for arr in (spectra, rank):
        arr.flags.writeable = False
    model = SISModel(structure=structure, generators=spectra, per_freq_rank=rank)
    return SISFit(model=model, error=error, spectrum=lam, degenerate=degenerate)


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
    return _fiber_distances(_signal_fibers(dataset, structure), models)


def solve_sis_bundle(dataset: DataSet, structure: ShiftStructure, l, n,
                     cfg: SolveConfig) -> SolveReport:
    """Alternating search over bundles of shift-invariant models.

    The Euclidean solver's search (``solver.search``) with per-frequency
    eigenproblems as the cellwise fitting step and fiber-space projections
    as the distance.
    ``l`` and ``n`` override the corresponding config fields.  The report's
    ``bundle`` holds a tuple of SISModel components.
    """
    if dataset.m == 0:
        raise EmptyDataSet("solve_sis_bundle requires at least one signal")
    cfg_eff = dc_replace(cfg, l=int(l), n=int(n))
    fib_all = _signal_fibers(dataset, structure)

    def fit_cells(assignment):
        fits = [best_sis(dataset.subset(idx), structure, cfg_eff.n)
                for idx in Partition(assignment, cfg_eff.l).cells()]
        return (tuple(f.model for f in fits), float(np.sum([f.error for f in fits])),
                [f.degenerate for f in fits])

    def distances(models):
        return _fiber_distances(fib_all, models)

    def singleton_dists(j):
        fit = best_sis(dataset.subset([j]), structure, 1)
        return _residuals_to_fibers(fib_all, _model_fibers(fit.model))

    return search(dataset, cfg_eff, fit_cells, distances, singleton_dists)
