"""The alternation step's kernels: distances, nearest subspace, cell rows.

``distance_matrix`` is checked against the per-subspace loop it replaced,
both blocked distance kernels (the residual and the complement kernel)
against their one-pass formulas on each block and against each other on
the same fits, ``nearest`` against ``argmin`` (on a matrix and on columns
gathered one at a time), and both distances and
best-fit errors against rotation, permutation and power-of-two scaling of
the data.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from uosfit import Bundle, DataSet, DimensionMismatch, Subspace, best_fit_subspace, distance_matrix
from uosfit import subspace
from uosfit.bundles import nearest, nearest_with_min
from uosfit.solver import _Subspaces
from uosfit.subspace import best_fit_stack, complement_rows, residual_rows, residuals_sq

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


def one_pass(x, bases):
    """The unblocked residual kernel: every point in one block of contiguous
    columns."""
    xt = np.ascontiguousarray(x.T)
    out = np.empty((len(bases), x.shape[0]))
    for row, basis in zip(out, bases):
        r = basis.T @ (basis @ xt)
        np.subtract(xt, r, out=r)
        np.einsum("km,km->m", r, r, out=row)
    return out


def one_pass_complement(x, fits):
    """The unblocked complement kernel: each point's squared norm along each
    fit's trailing rows, or its squared norm for a rank-0 fit."""
    xt = np.ascontiguousarray(x.T)
    out = np.empty((len(fits), x.shape[0]))
    for row, (rows, rank) in zip(out, fits):
        p = rows[rank:] @ xt if rank else xt
        np.einsum("km,km->m", p, p, out=row)
    return out


def complement_of(x, fits):
    """``complement_rows`` on a list of (rows, rank) fits, stacked."""
    return complement_rows(x, np.array([rows for rows, _ in fits]), [rank for _, rank in fits])


# Per kernel: the function, its one-pass formula, and how many times fewer
# points its blocks hold than a residual block (see ``_BLOCK_BYTES``).  The
# residual kernel's models are bases, the complement kernel's (rows, rank)
# fits.
KERNELS = {
    "residual": (residual_rows, one_pass, 1),
    "complement": (complement_of, one_pass_complement, 2),
}


def block_of(monkeypatch, points, dim, kernel="residual"):
    """Set the byte budget so that each of the kernel's blocks holds
    ``points`` points."""
    monkeypatch.setattr(subspace, "_BLOCK_BYTES", points * 8 * dim * KERNELS[kernel][2])


def _bases(rng, dim):
    return [sub.basis for sub in random_bundle(rng, 3, dim)] + [np.zeros((0, dim))]


def _complements(rng, dim):
    """Fits of random rotations, ranks 0 and N included."""
    splits = [0, dim] + [int(d) for d in rng.integers(0, dim + 1, 3)]
    return [(np.ascontiguousarray(rotation(rng, dim).T), d) for d in splits]


_MODELS = {"residual": _bases, "complement": _complements}


@pytest.mark.parametrize("points", [1, 2, 3])
@pytest.mark.parametrize("blocks", [0, 1 / 3, 1, 2, 5])
@pytest.mark.parametrize("edge", [-1, 0, 1])
def test_each_block_takes_the_one_pass_formula(points, blocks, edge):
    # m = 0, m = 1, one block boundary +-1, and m spanning several blocks.
    m = max(0, round(blocks * points) + edge)
    rng = np.random.default_rng(m * 10 + points)
    x = rng.standard_normal((m, 5)) * rng.uniform(0.1, 10.0, size=(m, 1))
    for kernel, (rows_of, formula, _) in KERNELS.items():
        mats = _MODELS[kernel](rng, 5)
        default = rows_of(x, mats)
        with pytest.MonkeyPatch.context() as patch:
            block_of(patch, points, 5, kernel)
            got = rows_of(x, mats)
        want = [formula(x[a:a + points], mats) for a in range(0, m, points)]
        assert got.shape == (len(mats), m) and got.flags.c_contiguous
        assert got.tobytes() == np.concatenate(want or [np.empty((len(mats), 0))], axis=1).tobytes()
        # BLAS may round a block of another width differently, within round-off.
        assert np.all(np.abs(got - default) <= 16 * EPS * np.einsum("ij,ij->i", x, x))


def test_default_block_spans_thousands_of_points_in_one_pass():
    rng = np.random.default_rng(5)
    for kernel, (rows_of, formula, split) in KERNELS.items():
        x = rng.standard_normal((subspace._BLOCK_BYTES // (8 * 6 * split), 6))
        mats = _MODELS[kernel](rng, 6)
        assert rows_of(x, mats).tobytes() == formula(x, mats).tobytes()


@pytest.mark.parametrize("points", [1, 2, 3, None])
def test_exact_arithmetic_gives_the_same_bits_in_any_block(monkeypatch, points):
    # Integer coordinates and coordinate-axis subspaces: every product and sum
    # is exact, so any order of summation, and either kernel, gives the
    # exact squared distances.
    rng = np.random.default_rng(9)
    x = rng.integers(-50, 50, size=(23, 4)).astype(np.float64)
    axes = Bundle((Subspace.zero(4), Subspace(4, [[1.0, 0, 0, 0]]), Subspace(4, np.eye(4)[1:3])))
    fits = [(np.eye(4), 0), (np.eye(4), 1), (np.eye(4)[[1, 2, 0, 3]], 2)]
    if points is not None:
        block_of(monkeypatch, points, 4)
    dmat = distance_matrix(DataSet(x), axes)
    want = np.stack([(x * x).sum(axis=1), (x[:, 1:] ** 2).sum(axis=1),
                     x[:, 0] ** 2 + x[:, 3] ** 2], axis=1)
    assert dmat.tobytes() == want.tobytes()
    assert residuals_sq(DataSet(x), axes[0]).tobytes() == want[:, 0].tobytes()
    assert complement_of(x, fits).tobytes() == np.ascontiguousarray(want.T).tobytes()


def per_model_rows(x, mats, kernel):
    """Per block of points, each model's products and row sum on its own."""
    m, dim = x.shape
    formula, split = KERNELS[kernel][1:]
    step = max(1, subspace._BLOCK_BYTES // (8 * split * max(dim, 1)))
    out = np.empty((len(mats), m))
    for start in range(0, m, step):
        out[:, start:start + step] = formula(x[start:start + step], mats)
    return out


def _mixed_splits(rng, dim, count):
    """``count`` random rotations, each with a split point, their bases'
    dimensions the first ``count`` of 0, 1, 1, dim and ``count`` random
    values in 0..dim, shuffled together."""
    dims = [int(d) for d in rng.permutation([0, 1, dim, 1] + list(rng.integers(0, dim + 1, count)))]
    return [(rotation(rng, dim), d) for d in dims[:count]]


def _split(splits, kernel):
    """Each rotation's leading columns as rows (a basis), or its columns as
    rows with the split as rank (a fit)."""
    if kernel == "residual":
        return [np.ascontiguousarray(q[:, :d].T) for q, d in splits]
    return [(np.ascontiguousarray(q.T), d) for q, d in splits]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(m=st.integers(0, 40), dim=st.integers(1, 7), count=st.integers(1, 14),
       points=st.sampled_from([1, 2, 5, "m", "2m", "3m", None]), seed=st.integers(0, 2**32 - 1))
@example(m=9, dim=3, count=14, points="2m", seed=0)  # 14 models, one block
@example(m=40, dim=4, count=6, points=3, seed=1)     # 14 blocks of 3 points
@example(m=20, dim=4, count=10, points=3, seed=13)   # ranks 0 3 4 1 3 2 2 0 4 3
def test_stacked_bases_give_each_basis_its_own_bits(m, dim, count, points, seed):
    # The residual kernel takes one basis at a time.  The complement kernel
    # cuts the call order into runs of equal non-zero rank and writes each
    # chunk of a run in place, and a rank-0 fit gets the block's squared
    # norms.  Each kernel's models are the bases or the fits of the same
    # rotations; a model's row has the bits it has alone.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0, size=(m, 1))
    splits = _mixed_splits(rng, dim, count)
    for kernel, (rows_of, _, _) in KERNELS.items():
        mats = _split(splits, kernel)
        with pytest.MonkeyPatch.context() as patch:
            if points is not None:
                p = {"m": m, "2m": 2 * m, "3m": 3 * m}.get(points, points)
                block_of(patch, max(p, 1), dim, kernel)
            got = rows_of(x, mats)
            alone = np.array([rows_of(x, [mat])[0] for mat in mats]).reshape(count, m)
            want = per_model_rows(x, mats, kernel)
        assert got.shape == (count, m) and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes() == alone.tobytes()


@pytest.mark.parametrize("points", [1, 4, 25, None])
def test_points_inside_a_stacked_subspace_are_at_exactly_zero(points):
    # Coordinate-axis subspaces, several of each dimension, and points on
    # them: every residual, and every norm along a complement, is an exact
    # zero, whatever the chunk.
    rng = np.random.default_rng(4)
    dim = 5
    splits = [(np.eye(dim)[rng.permutation(dim)].T, d) for d in (2, 3, 2, 0, 2, 3, 1, 2)]
    splits += [(np.eye(dim).T, 3)] * 2
    x = rng.integers(-9, 10, size=(25, dim)).astype(np.float64)
    x[:, 3:] = 0.0  # every point lies in the span of the first three axes
    bases = _split(splits[:-2], "residual")
    want = [(x * x).sum(axis=1) - (x @ b.T * (x @ b.T)).sum(axis=1) for b in bases]
    for kernel, (rows_of, _, _) in KERNELS.items():
        mats = _split(splits, kernel)
        with pytest.MonkeyPatch.context() as patch:
            if points is not None:
                block_of(patch, points, dim, kernel)
            got = rows_of(x, mats)
            assert got.tobytes() == per_model_rows(x, mats, kernel).tobytes()
        assert not got[-2:].any()
        assert got[:-2].tobytes() == np.array(want).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(0, 40), dim=st.integers(1, 8), points=st.sampled_from([1, 2, 5, None]),
       seed=st.integers(0, 2**32 - 1))
def test_complement_agrees_with_residual_on_the_same_fits(m, dim, points, seed):
    # Each fit's leading rows span the model, its trailing rows complete
    # them: at every split 0..N the two kernels measure the same distance.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, dim)) * rng.uniform(0.1, 10.0, size=(m, 1))
    cells = rng.integers(0, 3, size=m)
    rows = best_fit_stack([x[cells == c] for c in range(3)], dim)[0]
    bound = 16 * EPS * np.einsum("ij,ij->i", x, x)
    with pytest.MonkeyPatch.context() as patch:
        if points is not None:
            block_of(patch, points, dim)
        for r in range(dim + 1):
            residual = residual_rows(x, [fit[:r] for fit in rows])
            complement = complement_rows(x, rows, [r] * len(rows))
            assert np.all(np.abs(complement - residual) <= bound)


@pytest.mark.parametrize("dim, n", [(1, 0), (2, 0), (3, 1), (5, 1), (6, 2), (4, 4)])
def test_rank_0_rows_tie_exactly_and_rank_n_rows_are_0(dim, n):
    # In a search an empty cell, a cell of zero points and, at n = 0, every
    # cell has rank 0: each gets the points' squared norms, with the bits of
    # the zero subspace's residual row.  A cell that spans R^N has no
    # complement rows and distance exactly 0.
    rng = np.random.default_rng(dim + 10 * n)
    x = rng.standard_normal((30, dim))
    x[:4] = 0.0
    family = _Subspaces(DataSet(x), 4, n)
    cells = [np.arange(0), np.arange(4), np.arange(4, 30), np.arange(4, 30, 2)]
    models, _ = family.fit(cells)
    dist = family.distances(models)
    zero = residual_rows(x, [np.zeros((0, dim))])[0]
    rank = models[1]
    assert rank[:2] == [0, 0] and (rank[2] == 0) == (n == 0)
    for g, r in enumerate(rank):
        if r == 0:
            assert dist[g].tobytes() == zero.tobytes()
        elif r == dim:
            assert not dist[g].any()
    assert (n == dim) == (rank[2] == dim)


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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    mat=arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 6)),
               elements=st.integers(0, 3).map(float)),
    order=st.sampled_from("CF"),
)
@example(mat=np.zeros((3, 300)), order="C")  # labels past one byte
@example(mat=np.tile(np.arange(300.0, 0.0, -1.0), (2, 1)), order="F")
def test_nearest_with_min_equals_argmin_and_min(mat, order):
    # Integer-valued entries make ties common; the lowest index must win.
    dmat = np.asarray(mat, order=order)
    labels, minima = nearest_with_min(dmat.T)
    want = dmat.argmin(axis=1)
    assert labels.dtype == want.dtype
    assert labels.tobytes() == want.tobytes()
    assert minima.tobytes() == dmat.min(axis=1).tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    rows=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(0, 8)),
                elements=st.integers(0, 3).map(float)),
    count=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_with_min_of_gathered_columns_matches_the_matrix_form(rows, count, seed):
    # Rows (chain c, cell i) held apart in any order, and each cell number's
    # column gathered from its chains' rows only when the pass reaches it,
    # as a search step with repeated cells does: the labels and minima have
    # the bits of the (m, l) form, ties (integer entries) included.
    l = -(-rows.shape[0] // count)
    rows = np.resize(rows, (l * count, rows.shape[1]))
    perm = np.random.default_rng(seed).permutation(l * count)
    held = [rows[g].copy() for g in perm]
    where = np.argsort(perm)
    gathered = (np.concatenate([held[where[g]] for g in range(i, i + count)])
                for i in range(0, l * count, count))
    labels, minima = nearest_with_min(gathered)
    dmat = rows.reshape(l, -1).T
    want = dmat.argmin(axis=1)
    assert labels.dtype == want.dtype
    assert labels.tobytes() == want.tobytes()
    assert minima.tobytes() == dmat.min(axis=1).tobytes()


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

    @pytest.mark.parametrize("labels", [None, tuple("wxyz")])
    @pytest.mark.parametrize("bad", [4, -5])
    def test_out_of_range_index_raises(self, bad, labels):
        data = DataSet(np.arange(8.0).reshape(4, 2), labels=labels)
        with pytest.raises(IndexError):
            data.subset(np.array([0, bad]))

    def test_negative_indices_select_like_indexing(self):
        data = DataSet(np.arange(15.0).reshape(5, 3), labels=tuple("vwxyz"))
        idx = np.array([-1, 0, -5, 2, -2])
        cell = data.subset(idx)
        assert cell.vectors.tobytes() == data.vectors[idx].tobytes()
        assert cell.labels == tuple(data.labels[i] for i in idx) == ("z", "v", "v", "x", "y")
        assert not cell.vectors.flags.writeable and cell.vectors.flags.c_contiguous

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
