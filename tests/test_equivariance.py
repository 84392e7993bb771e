"""Symmetries of the lockstep search on planted data.

Permuting the points (with the starts permuted alike) permutes every chain's
assignment the same way, an orthogonal rotation of the data changes no
chain, and circular shifts of the signals by multiples of the shift step
change no shift-invariant chain.  Traces agree to round-off of the data
energy.  The planted inputs come from the fixed seeds below, so hypothesis
only draws the symmetry and the starts.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from uosfit import DataSet, ShiftStructure, generate
from uosfit.sis import _ShiftInvariantCells
from uosfit.solver import _lockstep, _Subspaces
from uosfit.spectral import STOP_TOL
from helpers import sis_signals_from_generator

PLANTED_SEEDS = (0, 1, 2, 3)
# l, n, ambient dimension, points per subspace
SHAPES = ((3, 1, 4, 8), (2, 2, 5, 12))
STRUCTURE = ShiftStructure(12, 3)


def _planted_union(seed, shape):
    l, n, dim, per = shape
    return generate(l=l, n=n, ambient_dim=dim, points_per_subspace=per,
                    noise_sigma=0.05, seed=seed)[0].vectors, l, n


def _planted_signals(seed):
    rng = np.random.default_rng(seed)
    x = np.vstack([sis_signals_from_generator(rng, rng.standard_normal(STRUCTURE.signal_len),
                                              STRUCTURE, 9) for _ in range(2)])
    return x + 0.05 * rng.standard_normal(x.shape)


def _starts(rng, m, l, count):
    return [rng.integers(0, l, size=m).astype(np.intp) for _ in range(count)]


def _run(family, x, starts):
    """The chains of one lockstep from ``starts``, and the round-off bound of
    their traces."""
    energy = float(np.sum(np.abs(x) ** 2))
    return _lockstep(starts, family, STOP_TOL * energy, 100), 1e-12 * energy


def _assert_same_chains(got, want, bound, perm=None):
    for a, b in zip(got, want):
        fitted = b.fitted if perm is None else b.fitted[perm]
        assert np.array_equal(a.fitted, fitted)
        assert a.converged == b.converged
        assert len(a.trace) == len(b.trace)
        assert np.all(np.abs(np.subtract(a.trace, b.trace)) <= bound)


draws = dict(planted=st.sampled_from(PLANTED_SEEDS), seed=st.integers(0, 2**32 - 1),
             count=st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.sampled_from(SHAPES), **draws)
def test_permuted_points_permute_every_chain(shape, planted, seed, count):
    x, l, n = _planted_union(planted, shape)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(x))
    starts = _starts(rng, len(x), l, count)
    want, bound = _run(_Subspaces(DataSet(x), l, n), x, starts)
    got, _ = _run(_Subspaces(DataSet(x[perm]), l, n), x, [s[perm] for s in starts])
    _assert_same_chains(got, want, bound, perm)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.sampled_from(SHAPES), **draws)
def test_rotated_data_keeps_every_chain(shape, planted, seed, count):
    x, l, n = _planted_union(planted, shape)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((x.shape[1], x.shape[1])))
    starts = _starts(rng, len(x), l, count)
    want, bound = _run(_Subspaces(DataSet(x), l, n), x, starts)
    got, _ = _run(_Subspaces(DataSet(x @ q.T), l, n), x, starts)
    _assert_same_chains(got, want, bound)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 2), **draws)
def test_shifts_by_the_step_keep_every_sis_chain(n, planted, seed, count):
    x = _planted_signals(planted)
    rng = np.random.default_rng(seed)
    shifts = STRUCTURE.shift_step * rng.integers(0, STRUCTURE.num_freqs, size=len(x))
    shifted = np.array([np.roll(row, s) for row, s in zip(x, shifts.tolist())])
    starts = _starts(rng, len(x), 2, count)
    want, bound = _run(_ShiftInvariantCells(DataSet(x), STRUCTURE, 2, n), x, starts)
    got, _ = _run(_ShiftInvariantCells(DataSet(shifted), STRUCTURE, 2, n), x, starts)
    _assert_same_chains(got, want, bound)
