"""A fixed reference computation that measures the machine's current speed.

On a shared machine the same job can take 30 % longer from one minute to
the next.  The kernel runs before every job, for about a fifth of the
previous job's time.  The jobs' mean wall time divided by the kernel's mean
time per run is ``job_rel``: a job's cost in kernel runs, from which such
drift largely cancels.  The kernel is a frozen cyclic Jacobi eigensolver on
a fixed 12 x 12 matrix: Python loops over small numpy arrays, the same mix
of work as the program's hot path.  It belongs to the benchmark, so no
change to the program can change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

_B = np.random.default_rng(0).standard_normal((12, 12))
_MATRIX = _B @ _B.T


def jacobi_eigenvalues(a):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    work = np.array(a, dtype=np.float64)
    n = work.shape[0]
    target = 1e-28 * float(np.sum(work * work))
    for _ in range(100):
        off = work - np.diag(np.diag(work))
        if float(np.sum(off * off)) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                if apq == 0.0:
                    continue
                tau = (work[q, q] - work[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                colp, colq = work[:, p].copy(), work[:, q].copy()
                work[:, p], work[:, q] = c * colp - s * colq, s * colp + c * colq
                rowp, rowq = work[p, :].copy(), work[q, :].copy()
                work[p, :], work[q, :] = c * rowp - s * rowq, s * rowp + c * rowq
    return np.sort(np.diag(work))


class Calibration:
    """Runs the kernel for a set share of the time spent in jobs, and keeps
    the totals."""

    share = 0.2

    def __init__(self):
        self.reps = 0
        self.wall = 0.0
        self._rep_s = None

    def run(self, job_s):
        """Run the kernel for about ``share`` of ``job_s`` seconds."""
        reps = 5 if self._rep_s is None else max(1, round(self.share * job_s / self._rep_s))
        t0 = time.perf_counter()
        for _ in range(reps):
            jacobi_eigenvalues(_MATRIX)
        wall = time.perf_counter() - t0
        self._rep_s = wall / reps
        self.reps += reps
        self.wall += wall

    @property
    def rep_s(self):
        """Mean wall seconds of one kernel run."""
        return self.wall / self.reps
