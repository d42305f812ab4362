"""Host-speed probe of the benchmark driver, in a process of its own.

    python3 bench/probe.py

For every line read from standard input the process runs fixed loops of
the kinds of work the workloads do (interpreter, quadrature, small arrays,
arrays larger than the caches; none touches qens) and prints how many
times slower they ran than their nominal time, so 1.0 is the nominal host
speed and 1.5 a host 50% slower.  It exits when its standard input
closes.  The probe lives apart from the driver because a child's ru_maxrss
starts at its parent's peak RSS, which the probe's imports and arrays
would raise.
"""

import math
import sys
import time

import numpy as np
from scipy.integrate import quad


def interp() -> None:
    total = 0
    for i in range(600_000):
        total += i * i % 7


def quadrature() -> None:
    for k in range(200):
        quad(lambda x: math.exp(-x * x) * math.cos((k % 100) * x), -6.0, 6.0, limit=200)


def small_arrays() -> None:
    a = np.arange(1 << 16, dtype=np.float64)
    for _ in range(256):
        np.sort((np.sqrt(a) * a + 1.0)[::7])


def stream() -> None:
    b = np.ones(1 << 22)  # 32 MiB, larger than the CPU caches
    c = np.empty_like(b)
    for _ in range(8):
        np.multiply(b, 1.0001, out=c)
        np.add(c, b, out=b)


LOOPS = (interp, quadrature, small_arrays, stream)
# seconds the loops take together on a quiet 2-core Xeon host, about
NOMINAL_S = 0.3


def main() -> int:
    for loop in LOOPS:  # warm up: first calls, page faults
        loop()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for loop in LOOPS:
            loop()
        print((time.perf_counter() - t0) / NOMINAL_S, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
