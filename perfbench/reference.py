"""Fixed reference computation that tracks how fast the machine runs right now.

On a shared host the same op can take 15-20 % longer for tens of seconds at
a time, which is wider than any useful regression bound.  The benchmark runs
this reference before the first timed step and after every step, and scales
each step's time by NOMINAL_S over the median of the reference times
around it.  Scaled times read as seconds on a machine where the reference
takes NOMINAL_S.  The reference is the kind of work crackbem's time goes
to: broadcast einsum kernels on (64, 256) point pairs, an LU factorization
and back-solve, and pure-Python float formatting and dict updates like the
CLI's CSV writing.  On the 2-core VM the benchmark was defined on, raw op
time moved by 15-25 % between 20 s windows while op time over reference time
moved by about 5 %; the numpy part tracks assembly-heavy ops best, the
Python part interpreter-heavy ones.  It is benchmark code: no crackbem change
can alter it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# median of one sample on a 2-core 2.1 GHz x86-64 VM with one OpenBLAS thread
NOMINAL_S = 0.014


class Reference:
    """Records reference samples around a sequence of timed steps."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 1, 2))
        self.y = rng.standard_normal((1, 256, 2))
        self.matrix = rng.standard_normal((256, 256)) + 256.0 * np.eye(256)
        self.lu = lu_factor(rng.standard_normal((515, 515)) + 515.0 * np.eye(515))
        self.rhs = rng.standard_normal((515, 16))
        self.floats = rng.standard_normal(3000).tolist()
        self.samples = []

    def _work(self) -> float:
        total = 0.0
        for _ in range(2):
            r = self.x - self.y
            inv = 1.0 / np.einsum("...i,...i->...", r, r)
            k = np.einsum("...i,...j,...k->...ijk", r, r, r) * inv[..., None, None, None]
            k += np.einsum("ij,...k->...ijk", np.eye(2), r)
            total += float(k[0, 0, 0, 0, 0])
        lu_factor(self.matrix)
        lu_solve(self.lu, self.rhs)
        text = ",".join(format(v, ".17g") for v in self.floats)
        counts = {}
        for k in range(3000):
            counts[k] = (k * k) % 7
        return total + len(text) + len(counts)

    def sample(self) -> None:
        start = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - start)

    def scale(self, durations: list, window: int = 2) -> list:
        """Durations scaled to NOMINAL_S.

        Needs one sample before and one after each step.  Step i is scaled by
        the median of the samples within `window` steps of it, which damps
        the noise of single samples but follows drift over a few steps.
        """
        refs = self.samples[-(len(durations) + 1):]
        if len(refs) != len(durations) + 1:
            raise ValueError("need a reference sample on both sides of every step")
        return [
            d * NOMINAL_S / statistics.median(refs[max(0, i - window): i + window + 2])
            for i, d in enumerate(durations)
        ]

    def median(self) -> float:
        return statistics.median(self.samples)
