import numpy as np
import pytest

from uosfit import (
    Bundle,
    DataSet,
    Partition,
    SolveConfig,
    Subspace,
    encode,
    extract_dictionary,
    gamma,
    generate,
    sparsity_certificate,
)
from uosfit.sparsity import reconstruction_error
from helpers import close_rel, lines_dataset

SQ2 = np.sqrt(2.0)


def per_point_encode(dataset, partition, dictionary):
    """Reference: one matrix-vector product per point."""
    x = dataset.vectors
    cols = np.zeros((len(dictionary), dataset.m))
    for i in range(dataset.m):
        idxs = dictionary.atom_to_subspace[partition.assignment[i]]
        if idxs:
            sel = np.array(idxs, dtype=np.intp)
            cols[sel, i] = dictionary.atoms[sel] @ x[i]
    sizes = tuple(int(np.count_nonzero(cols[:, i])) for i in range(dataset.m))
    return cols, sizes


def axes_bundle():
    return Bundle((Subspace(2, [[1.0, 0.0]]), Subspace(2, [[0.0, 1.0]])))


class TestExtractDictionary:
    def test_two_axes(self):
        d = extract_dictionary(axes_bundle())
        assert len(d) == 2
        assert d.raw_atom_count == 2
        assert np.allclose(np.abs(d.atoms), np.eye(2))

    def test_zero_subspace_contributes_nothing(self):
        bundle = Bundle((Subspace.zero(2), Subspace(2, [[1.0, 0.0]])))
        d = extract_dictionary(bundle)
        assert len(d) == 1
        assert d.atom_to_subspace == ((), (0,))

    def test_shared_line_dedup(self):
        # two planes in R^3 sharing the e2 line, bases aligned on it
        p1 = Subspace(3, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        p2 = Subspace(3, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        bundle = Bundle((p1, p2))
        raw = extract_dictionary(bundle, dedup_tol=0.0)
        merged = extract_dictionary(bundle, dedup_tol=1e-6)
        assert len(raw) == 4
        assert len(merged) == 3
        assert merged.raw_atom_count == 4
        # the shared atom spans e2 inside both groups
        assert set(merged.atom_to_subspace[0]) & set(merged.atom_to_subspace[1])

    def test_atoms_span_their_component(self):
        rng = np.random.default_rng(0)
        subs = tuple(Subspace.span(rng.standard_normal((2, 4))) for _ in range(3))
        bundle = Bundle(subs)
        d = extract_dictionary(bundle)
        for sub, idxs in zip(bundle, d.atom_to_subspace):
            atoms = d.atoms[list(idxs)]
            for w in sub.basis:
                res = w - atoms.T @ (atoms @ w)
                assert np.linalg.norm(res) <= 1e-10

    def test_atom_count_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            l = int(rng.integers(1, 4))
            n = int(rng.integers(0, 3))
            subs = []
            for _ in range(l):
                k = int(rng.integers(0, n + 1))
                subs.append(Subspace.span(rng.standard_normal((k, 5))) if k else Subspace.zero(5))
            d = extract_dictionary(Bundle(tuple(subs)))
            assert len(d) <= l * n or n == 0 and len(d) == 0


class TestEncode:
    def test_point_in_subspace_reconstructs(self):
        f = DataSet([[2.0, 0.0], [0.0, -1.0]])
        bundle = axes_bundle()
        p = Partition([0, 1], 2)
        d = extract_dictionary(bundle)
        code = encode(f, bundle, p, d)
        assert reconstruction_error(f, d, code) <= 1e-20

    def test_off_subspace_residual(self):
        f = DataSet([[1.0, 1.0]])
        bundle = Bundle((Subspace(2, [[1.0, 0.0]]),))
        p = Partition([0], 1)
        d = extract_dictionary(bundle)
        code = encode(f, bundle, p, d)
        assert code.columns[0, 0] == pytest.approx(1.0)
        assert code.support_sizes == (1,)
        assert reconstruction_error(f, d, code) == pytest.approx(1.0)

    def test_supports_stay_in_one_component(self):
        rng = np.random.default_rng(2)
        f = DataSet(rng.standard_normal((8, 3)))
        subs = tuple(Subspace.span(rng.standard_normal((2, 3))) for _ in range(2))
        bundle = Bundle(subs)
        p = Partition(rng.integers(0, 2, 8), 2)
        d = extract_dictionary(bundle)
        code = encode(f, bundle, p, d)
        for i in range(8):
            nz = set(np.nonzero(code.columns[:, i])[0])
            assert nz <= set(d.atom_to_subspace[p.assignment[i]])

    def test_residual_equals_gamma(self):
        rng = np.random.default_rng(3)
        f = DataSet(rng.standard_normal((10, 4)))
        subs = tuple(Subspace.span(rng.standard_normal((2, 4))) for _ in range(3))
        bundle = Bundle(subs)
        p = Partition(rng.integers(0, 3, 10), 3)
        d = extract_dictionary(bundle)
        code = encode(f, bundle, p, d)
        assert close_rel(reconstruction_error(f, d, code), gamma(f, p, bundle), 1e-9)


    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_point_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        f = DataSet(rng.standard_normal((40, 5)))
        # an empty cell (no point assigned to 2) and a zero component (3)
        subs = (Subspace.span(rng.standard_normal((2, 5))),
                Subspace.span(rng.standard_normal((3, 5))),
                Subspace.span(rng.standard_normal((1, 5))),
                Subspace.zero(5))
        bundle = Bundle(subs)
        p = Partition(rng.choice([0, 1, 3], 40), 4)
        d = extract_dictionary(bundle)
        code = encode(f, bundle, p, d)
        want, want_sizes = per_point_encode(f, p, d)
        assert code.columns.tobytes() == want.tobytes()
        assert code.support_sizes == want_sizes
        assert all(code.support_sizes[i] == 0 for i in np.flatnonzero(p.assignment == 3))

    def test_no_atoms(self):
        f = DataSet([[1.0, 2.0], [3.0, 4.0]])
        bundle = Bundle((Subspace.zero(2),))
        d = extract_dictionary(bundle)
        code = encode(f, bundle, Partition([0, 0], 1), d)
        assert code.columns.shape == (0, 2)
        assert code.support_sizes == (0, 0)

class TestCertificate:
    def test_noiseless_is_exact(self):
        data, _ = generate(l=2, n=1, ambient_dim=4, points_per_subspace=10, seed=3)
        cert = sparsity_certificate(data, SolveConfig(l=2, n=1, restarts=8, seed=0))
        assert cert.epsilon <= 1e-12
        assert cert.is_exact
        assert len(cert.dictionary) <= 2
        assert all(s <= 1 for s in cert.code.support_sizes)

    def test_noisy_is_not_exact(self):
        data, _ = generate(l=2, n=1, ambient_dim=4, points_per_subspace=10,
                           noise_sigma=0.1, seed=3)
        cert = sparsity_certificate(data, SolveConfig(l=2, n=1, restarts=8, seed=0))
        assert cert.epsilon > 0.0
        assert not cert.is_exact

    def test_full_space_component(self):
        rng = np.random.default_rng(4)
        data = DataSet(rng.standard_normal((6, 3)))
        cert = sparsity_certificate(data, SolveConfig(l=1, n=3, restarts=2, seed=0))
        assert cert.epsilon <= 1e-12
        assert cert.is_exact

    def test_residual_matches_objective(self):
        rng = np.random.default_rng(5)
        data = lines_dataset(rng, [[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]], 8, noise=0.05)
        cert = sparsity_certificate(data, SolveConfig(l=2, n=1, restarts=8, seed=0))
        rec = reconstruction_error(data, cert.dictionary, cert.code)
        assert close_rel(rec, cert.epsilon, 1e-9)

    def test_all_zero_data_is_exact(self):
        # epsilon is exactly 0.0, so the energy-relative default needs no floor
        cert = sparsity_certificate(DataSet(np.zeros((5, 3))), SolveConfig(l=2, n=1, restarts=2))
        assert cert.epsilon == 0.0
        assert cert.is_exact and cert.report.converged

    def test_looser_exact_tol_never_flips_to_false(self):
        # (l, n, eps)-sparse implies (l, n, eta)-sparse for eta >= eps
        data, _ = generate(l=2, n=1, ambient_dim=4, points_per_subspace=6, seed=6)
        cfg = SolveConfig(l=2, n=1, restarts=8, seed=0)
        tight = sparsity_certificate(data, cfg, exact_tol=1e-11)
        loose = sparsity_certificate(data, cfg, exact_tol=1e-6)
        assert tight.is_exact
        assert loose.is_exact
