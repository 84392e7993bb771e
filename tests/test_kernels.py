"""The alternation step's kernels: distances, nearest subspace, cell rows.

``distance_matrix`` is checked against the per-subspace loop it replaced,
``nearest`` against ``argmin``, and both distances and best-fit errors
against rotation, permutation and power-of-two scaling of the data.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from uosfit import Bundle, DataSet, DimensionMismatch, Subspace, best_fit_subspace, distance_matrix
from uosfit.bundles import nearest
from uosfit.subspace import residuals_sq

EPS = np.finfo(np.float64).eps


def reference_distances(x, bundle):
    """Per-subspace loop: residual ``x - (x B^T) B``, then a row-wise sum."""
    cols = []
    for sub in bundle:
        res = x - (x @ sub.basis.T) @ sub.basis
        cols.append(np.einsum("ij,ij->i", res, res))
    return np.stack(cols, axis=1)


def random_bundle(rng, l, dim):
    """l subspaces of random dimension 0..dim (zero subspaces included)."""
    subs = []
    for _ in range(l):
        k = int(rng.integers(0, dim + 1))
        subs.append(Subspace.span(rng.standard_normal((k, dim))) if k else Subspace.zero(dim))
    return Bundle(tuple(subs))


def rotation(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


shapes = dict(
    m=st.integers(0, 40), dim=st.integers(1, 8), l=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(**shapes)
@example(m=0, dim=3, l=2, seed=0)
@example(m=7, dim=4, l=1, seed=1)
def test_distance_matrix_matches_per_subspace_loop(m, dim, l, seed):
    rng = np.random.default_rng(seed)
    data = DataSet(rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0, size=(m, 1)))
    bundle = random_bundle(rng, l, dim)
    bundle = Bundle(bundle.subspaces[:-1] + (Subspace.zero(dim),)) if l > 1 else bundle
    dmat = distance_matrix(data, bundle)
    assert dmat.shape == (m, l)
    assert dmat.T.flags.c_contiguous  # each subspace's column is one contiguous row
    ref = reference_distances(data.vectors, bundle)
    tol = 16 * EPS * data.norms_sq()[:, None]
    assert np.all(np.abs(dmat - ref) <= tol)
    for j, sub in enumerate(bundle):
        assert np.array_equal(residuals_sq(data, sub), dmat[:, j])  # one kernel


def test_distance_matrix_zero_subspace_is_squared_norm():
    data = DataSet([[3.0, 4.0], [0.0, 0.0], [1.0, -1.0]])
    dmat = distance_matrix(data, Bundle((Subspace.zero(2), Subspace(2, [[1.0, 0.0]]))))
    assert dmat.tolist() == [[25.0, 16.0], [0.0, 0.0], [2.0, 1.0]]


def test_distance_matrix_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        distance_matrix(DataSet(np.ones((3, 2))), Bundle((Subspace.zero(3),)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    mat=arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 6)),
               elements=st.integers(0, 3).map(float)),
    order=st.sampled_from("CF"),
)
def test_nearest_equals_argmin(mat, order):
    dmat = np.asarray(mat, order=order)
    got = nearest(dmat)
    want = dmat.argmin(axis=1)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestSubset:
    def test_rows_labels_and_read_only(self):
        data = DataSet(np.arange(12.0).reshape(4, 3), labels=("a", "b", "c", "d"))
        idx = np.array([3, 0, 2])
        cell = data.subset(idx)
        assert np.array_equal(cell.vectors, data.vectors[idx])
        assert cell.labels == ("d", "a", "c")
        assert not cell.vectors.flags.writeable
        with pytest.raises(ValueError):
            cell.vectors[0, 0] = 1.0

    def test_empty_and_unlabelled(self):
        data = DataSet(np.ones((3, 2)))
        cell = data.subset(np.zeros(0, dtype=np.intp))
        assert cell.vectors.shape == (0, 2) and cell.labels is None
        assert best_fit_subspace(cell, 1).error == 0.0

    def test_rejects_2d_index(self):
        data = DataSet(np.ones((4, 2)), labels=tuple("wxyz"))
        with pytest.raises(DimensionMismatch):
            data.subset(np.array([[0, 1], [2, 3]]))


def _data(seed, m, dim):
    rng = np.random.default_rng(seed)
    return rng, rng.standard_normal((m, dim))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**shapes)
def test_distances_are_rotation_and_permutation_equivariant(m, dim, l, seed):
    rng, x = _data(seed, m, dim)
    bundle = random_bundle(rng, l, dim)
    dmat = distance_matrix(DataSet(x), bundle)
    tol = 64 * EPS * np.einsum("ij,ij->i", x, x)[:, None]

    q = rotation(rng, dim)
    turned = Bundle(tuple(Subspace(dim, sub.basis @ q) for sub in bundle))
    assert np.all(np.abs(distance_matrix(DataSet(x @ q), turned) - dmat) <= tol)

    p = rng.permutation(m)
    assert np.all(np.abs(distance_matrix(DataSet(x[p]), bundle) - dmat[p]) <= tol[p])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**shapes, k=st.integers(-40, 40))
def test_distances_scale_by_exact_c_squared(m, dim, l, seed, k):
    rng, x = _data(seed, m, dim)
    bundle = random_bundle(rng, l, dim)
    c = 2.0**k
    scaled = distance_matrix(DataSet(c * x), bundle)
    assert np.array_equal(scaled, c * c * distance_matrix(DataSet(x), bundle))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=st.integers(1, 30), dim=st.integers(1, 8), n=st.integers(0, 8),
       seed=st.integers(0, 2**32 - 1), k=st.integers(-40, 40))
def test_best_fit_error_is_rotation_permutation_and_scale_equivariant(m, dim, n, seed, k):
    rng, x = _data(seed, m, dim)
    error = best_fit_subspace(DataSet(x), n).error
    energy = float(np.sum(x * x))
    tol = 16 * (m + dim) * EPS * energy

    assert abs(best_fit_subspace(DataSet(x @ rotation(rng, dim)), n).error - error) <= tol
    assert abs(best_fit_subspace(DataSet(x[rng.permutation(m)]), n).error - error) <= tol
    c2 = 4.0**k
    assert abs(best_fit_subspace(DataSet(2.0**k * x), n).error - c2 * error) <= c2 * tol
