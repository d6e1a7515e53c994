"""How fast the host runs Python right now, to normalise timings by.

The benchmark runs on a few cores of a shared host whose speed moves by
1.5-2x over minutes: a fixed pure-Python loop ran 12.6 ms per unit in
one minute and 21 ms in another, with ``time.process_time`` moving with
it, so the slowdown is inside the CPU, not time spent descheduled.  A
request slows by about the same factor (a 131K-GPU ``run`` read 0.33 s
and 0.55 s in such minutes, 1.67x, against 1.73x for the loop).

``probe`` times a fixed piece of work in the style of the simulator
(heap-ordered events, small objects, dict updates, float arithmetic)
that calls none of the program under test.  ``speed_factor`` turns the
probe times taken during one stretch of a run into the factor by which
the host ran slower than the reference, so ``seconds / factor`` reads
as seconds on the reference host.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Iterable

#: A round number near the median seconds of ``probe()`` on the
#: reference host (2-vCPU x86_64, Python 3.11); it sets the scale of
#: every normalised figure.  ``baseline.json`` records the median speed
#: factor of the runs that measured it.
REFERENCE_S = 0.007


class _Event:
    __slots__ = ("at", "rank", "cost")

    def __init__(self, at: float, rank: int, cost: float) -> None:
        self.at = at
        self.rank = rank
        self.cost = cost


def _work() -> float:
    ready = {}
    heap = []
    for i in range(3000):
        ev = _Event(i * 0.5, i % 16, 1.0 + (i * 7919 % 13) / 13.0)
        heapq.heappush(heap, (ev.at, i, ev))
    total = 0.0
    seq = len(heap)
    while heap:
        at, i, ev = heapq.heappop(heap)
        start = max(at, ready.get(ev.rank, 0.0))
        ready[ev.rank] = start + ev.cost
        total += ready[ev.rank] - at
        if i % 3 == 0 and at < 1500.0:
            heapq.heappush(heap, (at + ev.cost * 2.0, seq, ev))
            seq += 1
    return total


def probe() -> float:
    """Seconds the fixed piece of work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def speed_factor(probes: Iterable[float]) -> float:
    """How many times slower than the reference the host ran, from the
    probe times of one stretch of a run (their median)."""
    return statistics.median(probes) / REFERENCE_S
