"""Input generators for the benchmark workloads.

The generators use their own numpy code, not ``uosfit.generate``, so a change
to the program's data module cannot change what the benchmark feeds it.  The
program only ever sees the CSV files written here.
"""

from __future__ import annotations

import numpy as np


def planted_union(seed, l, n, dim, points, sigma):
    """``points`` vectors in R^dim drawn from ``l`` random n-planes plus noise.

    Points are split evenly over the planes (the first planes take the
    remainder) and shuffled, with standard Gaussian coefficients and isotropic
    Gaussian noise of deviation ``sigma``.
    """
    rng = np.random.default_rng(seed)
    sizes = [points // l + (1 if k < points % l else 0) for k in range(l)]
    blocks = []
    for size in sizes:
        basis, _ = np.linalg.qr(rng.standard_normal((dim, n)))
        blocks.append(rng.standard_normal((size, n)) @ basis.T)
    x = np.vstack(blocks)
    x += sigma * rng.standard_normal(x.shape)
    return x[rng.permutation(points)]


def planted_sis(seed, classes, signals, signal_len, shift_step, sigma):
    """Real signals from single-generator shift-invariant classes plus noise.

    Each class has one random unit-norm generator; each signal is a random
    Gaussian combination of that generator's circular shifts by multiples of
    ``shift_step``.  Signals are split evenly over the classes and shuffled.
    """
    rng = np.random.default_rng(seed)
    num_shifts = signal_len // shift_step
    sizes = [signals // classes + (1 if k < signals % classes else 0) for k in range(classes)]
    blocks = []
    for size in sizes:
        gen = rng.standard_normal(signal_len)
        gen /= np.linalg.norm(gen)
        shifts = np.stack([np.roll(gen, k * shift_step) for k in range(num_shifts)])
        blocks.append(rng.standard_normal((size, num_shifts)) @ shifts)
    x = np.vstack(blocks)
    x += sigma * rng.standard_normal(x.shape)
    return x[rng.permutation(signals)]


def write_csv(path, rows):
    """One vector per line, 17 significant digits so every float round-trips."""
    np.savetxt(path, rows, fmt="%.17g", delimiter=",")
