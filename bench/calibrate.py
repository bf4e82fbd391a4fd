"""Host-speed calibration of the end-to-end timings.

The benchmark gets a few cores of a shared host.  Other tenants slow every
process on it, by up to a half for seconds to minutes at a time, and the
slowdown shows in user CPU time as much as in wall time (cache and core
contention, not only descheduling), so neither a median nor a minimum over
one run removes it.  It slows a fixed kernel that never touches qdeco by
about the same factor as it slows the workloads.  The benchmark times that
kernel between the workload's calls and reports a time t, measured between
kernel times k0 and k1, as

    t * REF_S / ((k0 + k1) / 2)

that is, in seconds at the speed the host had when REF_S was measured.  A
change to qdeco moves t and not k, so it moves the reported time in full.

The kernel is a pure-Python loop plus a numpy gather and a 16 x 16 eigen-
solve, in about the proportion of interpreter and numpy work the workloads
have; either part alone tracked the workloads' slowdowns less closely.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the host the benchmark was tuned on (2-vCPU Intel
# Xeon KVM guest, CPython 3, numpy with one BLAS thread).
REF_S = 0.0095

_rng = np.random.default_rng(0)
_VEC = _rng.standard_normal(1 << 14)
_IDX = _rng.integers(0, 1 << 14, size=(64, 1 << 10))
_SYM = _rng.standard_normal((16, 16))
_SYM = _SYM + _SYM.T


def _kernel() -> float:
    acc, table = 0, {}
    for i in range(60000):
        acc += i * i
        table[i & 255] = acc
    total = 0.0
    for _ in range(6):
        total += float(_VEC[_IDX].sum(axis=0)[0]) + float(np.linalg.eigvalsh(_SYM)[0])
    return total


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def normalize(seconds: float, k0: float, k1: float) -> float:
    """`seconds`, measured between kernel times k0 and k1, at REF_S speed."""
    return seconds * REF_S * 2.0 / (k0 + k1)
