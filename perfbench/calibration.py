"""Calibration loop for the benchmark's timings.

The cores the benchmark runs on are shared, and their speed for one
process changes by up to half, many times a second.  ``calibrate`` times
a fixed exact-arithmetic loop, the same kind of work as flowring's inner
convolution but written here, so that no change to the program moves it.
Timings are scaled by ``CAL_REF_S`` over the calibration time measured
around them and so read as times on a core that runs the loop in
``CAL_REF_S``.
"""

import math
import time
from fractions import Fraction

CAL_REF_S = 0.0006  # loop time on an uncontended core of the reference machine

_A = [Fraction((7 * i) % 11 - 5, 1 + i % 4) for i in range(16)]
_B = [Fraction((5 * i) % 13 - 6, 1 + i % 3) for i in range(16)]


def calibrate():
    """Seconds taken by a binomial convolution of two fixed Fraction vectors."""
    start = time.perf_counter()
    for n in range(len(_A)):
        acc = _A[0] * _B[n]
        for k in range(1, n + 1):
            acc = acc + math.comb(n, k) * (_A[k] * _B[n - k])
    return time.perf_counter() - start
