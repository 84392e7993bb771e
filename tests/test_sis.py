import math

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
    generators, _, rank, error, degenerate = best_sis_stack(blocks, s, n)
    for g, block in enumerate(blocks):
        if block.shape[0]:
            gen1, _, rank1, error1, degenerate1 = best_sis_stack([block], s, n)
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
