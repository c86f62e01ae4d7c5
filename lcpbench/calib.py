"""Reference kernel for calibrated seconds.

A fixed piece of work in the two kinds of arithmetic lcplab spends its
time in: plain-Python ``Fraction`` elimination (the exact layers) and
small numpy ``eigvals`` calls (the lattice scan).  It never imports
lcplab, so a change to lcplab cannot change it.  The benchmark times it
between operations; a raw duration ``d`` becomes ``d * K_REF / k``
calibrated seconds, where ``k`` is the ``level`` of the kernel times
taken around it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# median kernel time in seconds, recorded once on the reference machine
# (2 cores, Python 3.11.7, numpy 2.4.6); see README.md
K_REF = 0.0225

_N = 6
_ROUNDS = 15
_EIG_CALLS = 300


def _fraction_det(rows):
    m = [row[:] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        p = m[col][col]
        det *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _work():
    acc = Fraction(0)
    for k in range(_ROUNDS):
        rows = [
            [Fraction(1, i + j + 1 + k) + (Fraction(k + 1) if i == j else 0) for j in range(_N)]
            for i in range(_N)
        ]
        acc += _fraction_det(rows)
    base = np.array(
        [[float((3 * i + 5 * j) % 7 - 3) / 4.0 for j in range(5)] for i in range(5)]
    )
    s = 0.0
    for k in range(_EIG_CALLS):
        s += float(np.abs(np.linalg.eigvals(base + k * 1e-3 * np.eye(5))).sum())
    return acc, s


def level(samples) -> float:
    """The kernel time that stands for a stretch of a run: the mean of
    its samples without the highest and the lowest tenth.  Operations
    pay the machine's average slowdown over their whole length, so a
    mean follows it better than the median; the trim drops single
    samples cut short or stretched by a stray event."""
    xs = sorted(samples)
    k = len(xs) // 10
    kept = xs[k:len(xs) - k]
    return sum(kept) / len(kept)


def run_kernel() -> tuple:
    """Run the kernel once; return its (wall, thread CPU) seconds.  The
    garbage collector is paused while it runs, so that the kernel does
    not pay for collecting what an operation left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.thread_time()
        _work()
        return time.perf_counter() - t0, time.thread_time() - c0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    import statistics

    samples = [run_kernel()[0] for _ in range(200)]
    print(f"median {statistics.median(samples):.5f} s over {len(samples)} runs")
