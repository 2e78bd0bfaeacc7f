"""A fixed piece of exact arithmetic that measures how fast the host runs
Python right now.

On a shared host the same job can take twice as long from one minute to the
next while neighbours load the core.  The benchmark times this kernel
next to the jobs and scales their times to a host on which the kernel takes
NOMINAL_S, so that a change of host speed between runs does not read as a
change of the program.  The kernel is the bench's own code and touches
nothing of indephorn, so a change to the library moves job times and leaves
the kernel alone.
"""

from __future__ import annotations

import time
from fractions import Fraction

# a round figure inside the kernel's range (1.5 to 3.3 ms) on the 2-vCPU
# x86-64 host the benchmark was tuned on, with Python 3.11; it only fixes the
# unit of the scaled seconds
NOMINAL_S = 0.002


def kernel():
    """A truncated square of a bivariate series over Fraction: the
    dict-of-tuples and rational arithmetic the library's kernels are made of."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in a.items():
            m = (m1[0] + m2[0], m1[1] + m2[1])
            if max(m) <= 5:
                out[m] = out.get(m, 0) + c1 * c2
    return out


def seconds():
    """Time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0

