"""A fixed CPU probe that measures how fast the host runs Python right now.

On a shared virtual machine the CPU speed a process gets changes by up to
1.8x in phases of seconds to minutes, as other tenants come and go, and
every part of the program slows alike: job time over probe time, taken
with the probe run between jobs, varies about four times less than job time
alone (measured on a 2-vCPU x86-64 VM, CPython 3.11).  So the benchmark
runs this probe between jobs and reports each time scaled to a host on
which the probe takes REFERENCE_S.  The probe uses only the standard
library, never altrings, so a change to the package moves the scaled
times and not the probe.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from statistics import median
from time import perf_counter

# About the probe's time on the VM above in its fast phases.
REFERENCE_S = 0.002

_Q_ROWS = [[Fraction((7 * i + 3 * j) % 23 - 11, 1 + (i * j) % 7) for j in range(9)]
           for i in range(7)]
_P = 10007
_P_ROWS = [[(31 * i * i + 17 * j + 5) % _P for j in range(14)] for i in range(12)]


def _reduce(rows, inverse, sub):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = inverse(rows[rank][c])
        rows[rank] = [x * inv for x in rows[rank]]
        for i, r in enumerate(rows):
            if i != rank and r[c]:
                f = r[c]
                rows[i] = [sub(a, f * b) for a, b in zip(r, rows[rank])]
        rank += 1
    return rank


def _work() -> int:
    memo = {}
    for i in range(1500):
        memo[(i % 97, i % 89)] = memo.get((i % 89, i % 97), 0) + i
    q = _reduce(_Q_ROWS, lambda x: 1 / x, lambda a, b: a - b)
    p = _reduce(_P_ROWS, lambda x: pow(x, _P - 2, _P), lambda a, b: (a - b) % _P)
    return q + p + len(memo)


def probe(repeats: int = 1) -> float:
    """Seconds the fixed work takes now (the median of `repeats` runs after
    one untimed run that warms the caches the last job left cold), with the
    cyclic collector off so that the program's heap cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        times = []
        for _ in range(repeats):
            start = perf_counter()
            _work()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return median(times)


def scaled(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at reference speed."""
    return seconds * REFERENCE_S / probe_s
