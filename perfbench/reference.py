"""A fixed reference kernel that measures how fast the host runs Python now.

On a shared host, other tenants slow a process down by up to half for
seconds or minutes at a time, so two runs of the same code can differ by
more than any bound worth enforcing.  The slowdown hits the benchmark's
operations and a similar computation run next to them alike: over a
five-minute trace on a 2-vCPU Xeon VM (2.1 GHz), raw latencies of the same
``topo verify`` swung by 40% between 20-sample windows while their ratio to
this kernel's adjacent run stayed within 3%.

The kernel is a dense row reduction modulo 7 of a fixed 128 x 128 integer
matrix held as lists of Python ints: the same kind of work as topokit's
dense Smith normal form, and independent of topokit, so that no change to
the program moves it.  ``REFERENCE_S`` is about its time on that VM when
the host is quiet.  A time ``t`` measured next to a kernel run of ``r``
seconds is reported as ``t * REFERENCE_S / r``: the time the operation would
take on that host at its quiet speed.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

REFERENCE_S = 0.050
SIDE = 128
PRIME = 7
# a reference run is due once this much measured work has followed the last one
CHUNK_S = 0.2


def _matrix() -> list[list[int]]:
    rng = random.Random(20081009)
    return [[rng.randrange(-3, 4) for _ in range(SIDE)] for _ in range(SIDE)]


MATRIX = _matrix()


def kernel() -> int:
    """Row-reduce ``MATRIX`` modulo ``PRIME``; returns its rank."""
    rows = [row[:] for row in MATRIX]
    rank = 0
    for col in range(SIDE):
        pivot = next((i for i in range(rank, SIDE) if rows[i][col] % PRIME), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inverse = pow(top[col], -1, PRIME)
        for i in range(rank + 1, SIDE):
            factor = rows[i][col] * inverse % PRIME
            if factor:
                rows[i] = [(a - factor * b) % PRIME for a, b in zip(rows[i], top)]
        rank += 1
    return rank


class Reference:
    """Runs the kernel on demand and keeps its times in run order."""

    def __init__(self):
        self.times: list[float] = []
        # the first runs are slower while the interpreter specialises the code
        self.rank = kernel()
        kernel()
        kernel()
        self.last = perf_counter()

    def sample(self) -> int:
        """Time one kernel run; returns its index in ``times``."""
        enabled = gc.isenabled()
        gc.disable()  # the kernel makes no cycles; a collection would time topokit's heap
        try:
            start = perf_counter()
            rank = kernel()
            self.times.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        if rank != self.rank:
            raise RuntimeError(f"reference kernel returned rank {rank}, not {self.rank}")
        self.last = perf_counter()
        return len(self.times) - 1

    def due(self) -> bool:
        return perf_counter() - self.last >= CHUNK_S

    def scale(self, before: int, after: int) -> float:
        """Factor for a time measured between runs ``before`` and ``after``."""
        return REFERENCE_S / ((self.times[before] + self.times[after]) / 2)
