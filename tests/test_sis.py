import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from uosfit import (
    DataSet,
    EmptyDataSet,
    LengthMismatch,
    ShiftStructure,
    SolveConfig,
    StructureMismatch,
    best_sis,
    generator_gramian,
    gramian,
    project_sis,
    sis_distance_matrix,
    solve_sis_bundle,
)
from uosfit.sis import _signal_fibers, best_sis_stack
from helpers import close_rel, sis_signals_from_generator


class TestShiftStructure:
    def test_fields(self):
        s = ShiftStructure(12, 4)
        assert s.num_freqs == 3
        assert s.num_aliases == 4

    def test_rejects_nondivisor(self):
        with pytest.raises(StructureMismatch):
            ShiftStructure(10, 4)

    def test_l_equal_one(self):
        s = ShiftStructure(8, 1)
        assert s.num_freqs == 8
        assert s.num_aliases == 1


class TestGramian:
    def test_impulse_by_hand(self):
        # unitary DFT of the impulse is constant 1/2; each alias sum is 2*(1/4)
        s = ShiftStructure(4, 2)
        g = gramian(DataSet([[1.0, 0.0, 0.0, 0.0]]), s)
        assert np.allclose(g.matrices[:, 0, 0], 0.5)

    def test_disjoint_spectra_give_diagonal_gramian(self):
        rng = np.random.default_rng(0)
        m_len, step = 16, 4
        s = ShiftStructure(m_len, step)
        spec1 = np.zeros(m_len, dtype=complex)
        spec2 = np.zeros(m_len, dtype=complex)
        bins = rng.permutation(m_len)
        spec1[bins[:8]] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        spec2[bins[8:]] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sig1 = np.fft.ifft(spec1) * math.sqrt(m_len)
        sig2 = np.fft.ifft(spec2) * math.sqrt(m_len)
        g = gramian(DataSet(np.vstack([sig1, sig2])), s)
        assert np.max(np.abs(g.matrices[:, 0, 1])) <= 1e-12

    def test_zero_signal(self):
        s = ShiftStructure(8, 2)
        g = gramian(DataSet(np.zeros((1, 8))), s)
        assert np.max(np.abs(g.matrices)) == 0.0

    def test_trace_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 24)) + 1j * rng.standard_normal((4, 24))
        s = ShiftStructure(24, 4)
        g = gramian(DataSet(x), s)
        total = float(sum(np.trace(g.matrices[w]).real for w in range(s.num_freqs)))
        energy = float(np.sum(np.abs(x) ** 2))
        assert close_rel(total, energy, 1e-10)

    def test_energy_bookkeeping_eigenvalues(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 16))
        s = ShiftStructure(16, 2)
        g = gramian(DataSet(x), s)
        assert close_rel(float(g.eigenvalues.sum()), float(np.sum(x * x)), 1e-10)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            gramian(DataSet(np.zeros((1, 6))), ShiftStructure(8, 2))


class TestBestSis:
    def test_single_signal_normalized_spectrum(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8)
        s = ShiftStructure(8, 2)
        fit = best_sis(DataSet([x]), s, 1)
        assert fit.error <= 1e-12
        assert fit.model.length == 1
        gg = generator_gramian(fit.model)
        vals = gg.eigenvalues.ravel()
        dist = np.minimum(np.abs(vals), np.abs(vals - 1.0))
        assert np.max(dist) <= 1e-9

    def test_n_at_least_m_zero_error(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 12))
        fit = best_sis(DataSet(x), ShiftStructure(12, 3), 3)
        assert fit.error <= 1e-10

    def test_n_zero_full_energy(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 12))
        fit = best_sis(DataSet(x), ShiftStructure(12, 3), 0)
        assert close_rel(fit.error, float(np.sum(x * x)), 1e-10)
        assert fit.model.length == 0

    def test_error_matches_direct_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            step = int(rng.choice([1, 2, 4]))
            m_len = step * int(rng.integers(2, 9))
            count = int(rng.integers(1, 6))
            n = int(rng.integers(0, 4))
            x = rng.standard_normal((count, m_len))
            data = DataSet(x)
            s = ShiftStructure(m_len, step)
            fit = best_sis(data, s, n)
            direct = float(sis_distance_matrix(data, [fit.model], s)[:, 0].sum())
            assert close_rel(fit.error, direct, 1e-9, floor=1e-10)

    def test_per_freq_rank_bounds(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 16))
        s = ShiftStructure(16, 4)
        fit = best_sis(DataSet(x), s, 2)
        assert fit.model.per_freq_rank.shape == (s.num_freqs,)
        assert np.all(fit.model.per_freq_rank <= 2)
        assert fit.model.length <= 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    step=st.integers(1, 4),
    num_freqs=st.integers(1, 4),
    count=st.integers(1, 6),
    n=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(step=4, num_freqs=3, count=2, n=1, seed=0)   # m < L
@example(step=3, num_freqs=2, count=3, n=2, seed=1)   # m = L
@example(step=2, num_freqs=4, count=5, n=1, seed=2)   # m > L
@example(step=2, num_freqs=3, count=5, n=2, seed=3)   # n >= min(m, L)
@example(step=4, num_freqs=2, count=3, n=5, seed=4)   # n >= min(m, L)
def test_best_sis_error_is_trailing_gramian_spectrum(step, num_freqs, count, n, seed):
    s = ShiftStructure(step * num_freqs, step)
    data = DataSet(np.random.default_rng(seed).standard_normal((count, s.signal_len)))
    fit = best_sis(data, s, n)
    lam = gramian(data, s).eigenvalues
    assert fit.spectrum.shape == lam.shape
    energy = float(np.sum(data.vectors**2))
    assert close_rel(fit.error, float(lam[:, n:].sum()), 1e-9, floor=1e-12 * energy)
    assert np.all(fit.model.per_freq_rank <= min(n, count, step))
    vals = generator_gramian(fit.model).eigenvalues.ravel()
    assert np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= 1e-9)


class TestProjectSis:
    def test_member_is_fixed(self):
        rng = np.random.default_rng(8)
        s = ShiftStructure(16, 4)
        g = rng.standard_normal(16)
        sigs = sis_signals_from_generator(rng, g, s, 3)
        fit = best_sis(DataSet(sigs), s, 1)
        f = sigs[0]
        out = project_sis(fit.model, f)
        assert np.max(np.abs(out - f)) <= 1e-9

    def test_full_space_when_step_one(self):
        # all shifts of the impulse with L = 1 span everything
        s = ShiftStructure(8, 1)
        fit = best_sis(DataSet([np.eye(8)[0]]), s, 1)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(8)
        assert np.max(np.abs(project_sis(fit.model, f) - f)) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(10)
        s = ShiftStructure(12, 3)
        fit = best_sis(DataSet(rng.standard_normal((2, 12))), s, 1)
        f = rng.standard_normal(12)
        p1 = project_sis(fit.model, f)
        p2 = project_sis(fit.model, p1)
        assert np.max(np.abs(p1 - p2)) <= 1e-10

    def test_commutes_with_shift(self):
        rng = np.random.default_rng(11)
        s = ShiftStructure(20, 5)
        fit = best_sis(DataSet(rng.standard_normal((3, 20))), s, 2)
        f = rng.standard_normal(20)
        left = project_sis(fit.model, np.roll(f, s.shift_step))
        right = np.roll(project_sis(fit.model, f), s.shift_step)
        assert np.max(np.abs(left - right)) <= 1e-10

    def test_residual_matches_error_single_signal(self):
        rng = np.random.default_rng(12)
        s = ShiftStructure(16, 2)
        x = rng.standard_normal(16)
        fit = best_sis(DataSet([x]), s, 1)
        res = x - project_sis(fit.model, x)
        assert close_rel(float(np.sum(np.abs(res) ** 2)), fit.error, 1e-9, floor=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(13)
        s = ShiftStructure(8, 2)
        fit = best_sis(DataSet(rng.standard_normal((1, 8))), s, 1)
        with pytest.raises(LengthMismatch):
            project_sis(fit.model, np.zeros(6))


class TestParseval:
    def test_frame_operator_identity_on_model_vectors(self):
        rng = np.random.default_rng(14)
        s = ShiftStructure(24, 4)
        gen = rng.standard_normal(24)
        data = DataSet(sis_signals_from_generator(rng, gen, s, 4))
        fit = best_sis(data, s, 1)
        for _ in range(200):
            f = sis_signals_from_generator(rng, gen, s, 1)[0]
            out = project_sis(fit.model, f)
            assert np.max(np.abs(out - f)) <= 1e-9 * max(1.0, np.max(np.abs(f)))

    def test_generator_gramian_is_projection(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            step = int(rng.choice([1, 2, 4]))
            m_len = step * int(rng.integers(2, 9))
            x = rng.standard_normal((int(rng.integers(1, 6)), m_len))
            fit = best_sis(DataSet(x), ShiftStructure(m_len, step), 2)
            vals = generator_gramian(fit.model).eigenvalues.ravel()
            if vals.size:
                dist = np.minimum(np.abs(vals), np.abs(vals - 1.0))
                assert np.max(dist) <= 1e-9


@pytest.mark.parametrize("sizes", [(0, 3, 0, 5, 1), (2, 0), (0, 4), (0, 0, 6)])
@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("complex_", [False, True])
def test_best_sis_stack_empty_blocks_fit_nothing(sizes, n, complex_):
    # an empty block gets no generators and error 0; a nonempty one gets the
    # bits of its own one-block fit
    rng = np.random.default_rng(sum(sizes) + n)
    s = ShiftStructure(12, 3)
    x = rng.standard_normal((sum(sizes), 12))
    if complex_:
        x = x + 1j * rng.standard_normal(x.shape)
    fib = _signal_fibers(DataSet(x), s)
    bounds = np.cumsum((0,) + sizes)
    blocks = [fib[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    generators, _, rank, error, degenerate = best_sis_stack(blocks, s, n, real=not complex_)
    for g, block in enumerate(blocks):
        if block.shape[0]:
            gen1, _, rank1, error1, degenerate1 = best_sis_stack([block], s, n,
                                                                 real=not complex_)
            assert generators[g].tobytes() == gen1[0].tobytes()
            assert np.array_equal(rank[g], rank1[0])
            assert error[g].hex() == error1[0].hex()
            assert degenerate[g] == degenerate1[0]
        else:
            assert generators[g].shape == (0, s.signal_len)
            assert generators[g].dtype == np.complex128
            assert not rank[g].any()
            assert error[g] == 0.0
            assert not degenerate[g]


class TestSolveSisBundle:
    def test_empty_dataset_raises(self):
        with pytest.raises(EmptyDataSet):
            solve_sis_bundle(DataSet(np.zeros((0, 8))), ShiftStructure(8, 2),
                             SolveConfig(l=1, n=1))

    def test_two_disjoint_models(self):
        rng = np.random.default_rng(16)
        s = ShiftStructure(16, 4)
        g1, g2 = rng.standard_normal(16), rng.standard_normal(16)
        sigs = np.vstack([
            sis_signals_from_generator(rng, g1, s, 6),
            sis_signals_from_generator(rng, g2, s, 6),
        ])
        rep = solve_sis_bundle(DataSet(sigs), s, SolveConfig(l=2, n=1, restarts=8, seed=0))
        assert rep.objective <= 1e-10
        assert rep.converged

    def test_l1_equals_best_sis(self):
        rng = np.random.default_rng(17)
        s = ShiftStructure(12, 2)
        data = DataSet(rng.standard_normal((4, 12)))
        rep = solve_sis_bundle(data, s, SolveConfig(l=1, n=2, restarts=2, seed=0))
        assert rep.objective == best_sis(data, s, 2).error

    def test_n_zero_total_energy(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((5, 8))
        s = ShiftStructure(8, 2)
        rep = solve_sis_bundle(DataSet(x), s, SolveConfig(l=3, n=0, restarts=2, seed=0))
        assert close_rel(rep.objective, float(np.sum(x * x)), 1e-10)

    @pytest.mark.parametrize("init", ["random_partition", "farthest_point"])
    def test_one_model_per_signal_fits_every_signal_exactly(self, init):
        # inputs fixed before the first run; at d31fe59, which seeded one cell
        # per signal only in the Euclidean sweep, the default init ended above
        # 0 on 11 of the 20
        s = ShiftStructure(16, 4)
        for seed in range(20):
            x = np.random.default_rng((99, seed)).standard_normal((6, 16))
            cfg = SolveConfig(l=6, n=1, seed=seed, init_strategy=init)
            rep = solve_sis_bundle(DataSet(x), s, cfg)
            assert rep.objective == 0.0 and rep.converged
            zero = solve_sis_bundle(DataSet(x), s, replace(cfg, n=0))
            assert close_rel(zero.objective, float(np.sum(x * x)), 1e-12) and zero.converged

    def test_farthest_point_init(self):
        rng = np.random.default_rng(19)
        s = ShiftStructure(16, 4)
        g1, g2 = rng.standard_normal(16), rng.standard_normal(16)
        sigs = np.vstack([
            sis_signals_from_generator(rng, g1, s, 5),
            sis_signals_from_generator(rng, g2, s, 5),
        ])
        cfg = SolveConfig(l=2, n=1, restarts=4, seed=0, init_strategy="farthest_point")
        rep = solve_sis_bundle(DataSet(sigs), s, cfg)
        assert rep.objective <= 1e-10


# Real signals against their complex copies: the copy solves every class on
# its own, the real signals only classes 0..K//2 (the half path).
ULPS = 16 * np.finfo(np.float64).eps

# (signal_len M, shift_step L, signals m, n)
REAL_CASES = {
    "K3-odd": (15, 5, 4, 2),
    "K3-odd-L-even": (12, 4, 5, 1),
    "K4-even": (16, 4, 6, 2),
    "K16-even": (64, 4, 8, 1),
    "K6-even-L-odd": (18, 3, 5, 2),
    "K1": (8, 8, 5, 3),
    "K1-L-odd": (7, 7, 3, 1),
    "L1-K-even": (8, 1, 4, 1),
    "L1-K-odd": (7, 1, 4, 1),
    "m-below-L": (20, 5, 2, 1),
    "n-at-least-L": (16, 4, 6, 5),
    "no-signals": (12, 3, 0, 1),
}


def _conjugate_symmetric(spectra):
    length = spectra.shape[-1]
    return np.array_equal(spectra[..., -np.arange(length) % length], spectra.conj())


def _parseval_gap(model):
    lam = generator_gramian(model).eigenvalues
    return float(np.max(np.minimum(np.abs(lam), np.abs(lam - 1.0)), initial=0.0))


@pytest.mark.parametrize("case", REAL_CASES)
def test_best_sis_of_real_signals_matches_their_complex_copy(case):
    m_len, step, count, n = REAL_CASES[case]
    s = ShiftStructure(m_len, step)
    x = np.random.default_rng(m_len * 100 + step * 10 + count).standard_normal((count, m_len))
    real, copy = DataSet(x), DataSet(x.astype(np.complex128))
    half, full = best_sis(real, s, n), best_sis(copy, s, n)
    energy = float(np.sum(x * x))
    bound = ULPS * energy
    assert abs(half.error - full.error) <= bound
    assert half.spectrum.shape == full.spectrum.shape == (s.num_freqs, count)
    assert np.max(np.abs(half.spectrum - full.spectrum), initial=0.0) <= bound
    assert np.array_equal(half.model.per_freq_rank, full.model.per_freq_rank)
    assert half.model.length == full.model.length
    assert _conjugate_symmetric(half.model.generators)
    assert _parseval_gap(half.model) <= 1e-8
    # either model, measured on the real signals or on their copy
    for model in (half.model, full.model):
        want = sis_distance_matrix(copy, [model], s)
        got = sis_distance_matrix(real, [model], s)
        assert np.max(np.abs(got - want), initial=0.0) <= bound
    direct = float(sis_distance_matrix(real, [half.model], s).sum())
    assert abs(direct - half.error) <= 1e-9 * energy


# (M, L, l, n, signals): planted signals of two generators
REAL_SOLVES = {
    "K4-even": (16, 4, 2, 1, 10),
    "K3-odd": (15, 5, 2, 2, 8),
    "K1": (8, 8, 2, 1, 6),
    "L1": (8, 1, 2, 1, 6),
    "m-below-L": (20, 5, 2, 1, 3),
    "n-at-least-L": (12, 3, 2, 4, 8),
    "empty-cells": (12, 4, 4, 1, 3),
    "sis-fit-shape": (64, 4, 2, 1, 32),
    "screened": (8, 2, 2, 1, 6000),  # tall: the search screens its restarts
}


@pytest.mark.parametrize("case", REAL_SOLVES)
@pytest.mark.parametrize("init", ["random_partition", "farthest_point"])
def test_solve_of_real_signals_matches_their_complex_copy(case, init):
    m_len, step, l, n, count = REAL_SOLVES[case]
    s = ShiftStructure(m_len, step)
    rng = np.random.default_rng(m_len + 7 * count)
    gens = rng.standard_normal((2, m_len))
    x = np.vstack([sis_signals_from_generator(rng, gens[k % 2], s, 1) for k in range(count)])
    x += 0.01 * rng.standard_normal(x.shape)
    cfg = SolveConfig(l=l, n=n, restarts=4, seed=3, init_strategy=init)
    half = solve_sis_bundle(DataSet(x), s, cfg)
    full = solve_sis_bundle(DataSet(x.astype(np.complex128)), s, cfg)
    bound = ULPS * float(np.sum(x * x))
    # planted classes: no near-ties, so the same chains to round-off
    assert half.partition.assignment.tolist() == full.partition.assignment.tolist()
    assert half.iterations_per_restart == full.iterations_per_restart
    assert abs(half.objective - full.objective) <= bound
    assert np.max(np.abs(np.subtract(half.per_restart_objectives,
                                     full.per_restart_objectives))) <= bound
    assert np.max(np.abs(np.subtract(half.residuals_sq, full.residuals_sq))) <= bound
    assert half.converged and full.converged
    for a, b in zip(half.bundle, full.bundle):
        assert np.array_equal(a.per_freq_rank, b.per_freq_rank)
        assert _conjugate_symmetric(a.generators)
        assert _parseval_gap(a) <= 1e-8


def test_distances_to_a_model_that_is_not_conjugate_symmetric_use_every_class():
    # real signals against a complex model: no class mirrors another
    rng = np.random.default_rng(30)
    s = ShiftStructure(12, 3)
    x = rng.standard_normal((5, 12))
    model = best_sis(DataSet(rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))),
                     s, 1).model
    assert not _conjugate_symmetric(model.generators)
    want = sis_distance_matrix(DataSet(x.astype(np.complex128)), [model], s)
    got = sis_distance_matrix(DataSet(x), [model], s)
    assert np.max(np.abs(got - want)) <= ULPS * float(np.sum(x * x))
    projected = np.array([project_sis(model, row) for row in x])
    assert np.allclose(got[:, 0], np.sum(np.abs(x - projected) ** 2, axis=1), rtol=1e-9)
