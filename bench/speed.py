"""A probe of the machine's current speed, to put run times on one scale.

The benchmark runs on a shared host whose speed swings by up to 2x for
minutes at a time.  The probe is a fixed pure-Python computation of the
benchmark's own (Dijkstra with heapq over a grid with seeded edge
lengths), so it shares no code with coverdiam and a change to the
program cannot move it.  A
run time divided by the probe time next to it, times REFERENCE_S, is the
time the run would have taken with the probe at REFERENCE_S.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from array import array

REFERENCE_S = 0.035  # the probe's time in the fast spells of the 2-core VM the README describes
CALLS = 3
SIDE = 110


def _lengths(name: str, count: int) -> array:
    rng = random.Random(f"speed-probe:{name}")
    return array("d", (rng.uniform(0.2, 2.0) for _ in range(count)))


# node i * SIDE + j of the grid; RIGHT[u] is the edge u -- u + 1, DOWN[u] the
# edge u -- u + SIDE.  Flat arrays keep the probe's memory out of peak_mem_mb.
_RIGHT = _lengths("right", SIDE * SIDE)
_DOWN = _lengths("down", SIDE * SIDE)


def _shortest_paths() -> float:
    n = SIDE
    t0 = time.perf_counter()
    for source in (0, n * n - 1):
        dist = [math.inf] * (n * n)
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            i, j = divmod(u, n)
            for ok, v, length in ((j + 1 < n, u + 1, _RIGHT[u]), (j > 0, u - 1, _RIGHT[u - 1]),
                                  (i + 1 < n, u + n, _DOWN[u]), (i > 0, u - n, _DOWN[u - n])):
                if ok and d + length < dist[v]:
                    dist[v] = d + length
                    heapq.heappush(heap, (d + length, v))
    return time.perf_counter() - t0


def probe() -> float:
    """Fastest of CALLS timings of the probe computation, in seconds."""
    return min(_shortest_paths() for _ in range(CALLS))
