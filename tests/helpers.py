"""Shared helpers for the test suite."""

import numpy as np

from uosfit import DataSet, NonFinite, NonSymmetric


def rel_err(a, b, floor=1e-15):
    """Relative disagreement with an absolute cushion for true zeros."""
    a, b = float(a), float(b)
    return abs(a - b) / max(abs(a), abs(b), floor)


def close_rel(a, b, tol, floor=1e-15):
    return abs(float(a) - float(b)) <= tol * max(abs(a), abs(b)) + floor


def random_dataset(rng, m, ambient):
    return DataSet(rng.standard_normal((m, ambient)))


def lines_dataset(rng, directions, points_per_line, noise=0.0):
    """Points on the given unit directions through the origin, plus noise."""
    blocks = []
    for d in directions:
        d = np.asarray(d, dtype=float)
        d = d / np.linalg.norm(d)
        coeffs = rng.standard_normal(points_per_line)
        pts = np.outer(coeffs, d)
        if noise > 0:
            pts = pts + noise * rng.standard_normal(pts.shape)
        blocks.append(pts)
    return DataSet(np.vstack(blocks))


def planted_union(seed, l, n, dim, points, sigma):
    """``points`` vectors in R^dim from ``l`` random n-planes plus isotropic
    noise, shuffled: the benchmark's generator (``bench/gen.py``), so a seed
    names the same input in both."""
    rng = np.random.default_rng(seed)
    sizes = [points // l + (1 if k < points % l else 0) for k in range(l)]
    blocks = []
    for size in sizes:
        basis, _ = np.linalg.qr(rng.standard_normal((dim, n)))
        blocks.append(rng.standard_normal((size, n)) @ basis.T)
    x = np.vstack(blocks)
    x += sigma * rng.standard_normal(x.shape)
    return x[rng.permutation(points)]


def sis_signals_from_generator(rng, gen, structure, count):
    """Random combinations of circular shifts (by the structure step) of gen."""
    sigs = []
    for _ in range(count):
        coeffs = rng.standard_normal(structure.num_freqs)
        sig = np.zeros_like(np.asarray(gen, dtype=float))
        for t, c in enumerate(coeffs):
            sig = sig + c * np.roll(gen, structure.shift_step * t)
        sigs.append(sig)
    return np.array(sigs)


def reference_sym_eigen(mat):
    """``spectral.sym_eigen`` as it was before its checks were fused: the
    same checks and LAPACK call, pivots by ``take_along_axis``.  Returns
    ``(eigenvalues, eigenvectors)``."""
    a = np.asarray(mat)
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains NaN or infinite entries")
    herm = a.conj().swapaxes(-1, -2)
    scale = np.max(np.abs(a), axis=(-2, -1))
    asym = np.max(np.abs(a - herm), axis=(-2, -1))
    if np.any(asym > 1e-12 * scale):
        raise NonSymmetric(f"asymmetry {float(np.max(asym)):.3e} exceeds tolerance")
    dtype = np.complex128 if np.iscomplexobj(a) else np.float64
    vals, vecs = np.linalg.eigh(((a + herm) / 2.0).astype(dtype))
    vals = vals[..., ::-1]
    vecs = vecs[..., ::-1]
    j = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, j, axis=-2)
    if np.iscomplexobj(vecs):
        vecs = vecs * (np.conj(pivot) / np.abs(pivot))
    else:
        vecs = np.where(pivot < 0.0, -vecs, vecs)
    return vals, vecs
