"""The host-speed probe that puts the benchmark's timings on one speed.

The benchmark's host is a few vCPUs of a shared machine whose speed
drifts: a fixed pure-Python loop runs 1.0x to 1.9x its fastest time,
in phases of a few seconds that rise and fall over minutes.  That drift
moves every timing of a run together, and between runs it is larger
than any regression the benchmark bounds (perfbench/NOTES.md has the
measurements).

So between ops, outside every op's clock, the benchmark runs a fixed
kernel that is independent of the program — a pure-Python Dijkstra
over a fixed random graph (dicts, sets, ``heapq``) plus numpy
element-wise maths and a sort — and times it in thread CPU seconds,
which exclude time the thread waits for a CPU or the GIL.  An op's
probe is the mean of the probes on either side of it, and its time at
the reference speed is ``seconds * REFERENCE_PROBE_S / probe``; set-ups
are scaled the same way.  The program never calls the probe, so a
change to the program moves the op times and leaves the probe as it
was, unless the program leaves work running after an op returns.  The
service's op timings are not scaled (``measure.measure`` says why).
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Sequence

import numpy

#: The probe's thread CPU seconds when the host runs at its reference
#: speed: the low end of its median over runs on the 2-vCPU Xeon host
#: the benchmark was calibrated on (NOTES.md).  It only sets the scale
#: of the reported seconds; every run divides by the same constant.
REFERENCE_PROBE_S = 0.0066

_NODES = 2000
_DEGREE = 5
_RNG = random.Random(20251017)
_GRAPH = [
    [(_RNG.randrange(_NODES), _RNG.random()) for _ in range(_DEGREE)]
    for _ in range(_NODES)
]
_VALUES = numpy.random.default_rng(20251017).random(20_000)


def probe() -> float:
    """Thread CPU seconds of one pass of the fixed kernel."""
    start = time.thread_time()
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in _GRAPH[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    values = _VALUES
    for _ in range(30):
        values = numpy.sqrt(values * 1.0001 + 0.5)
        numpy.argsort(values[:5000])
    return time.thread_time() - start


def scale(probes: Sequence[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_PROBE_S / (sum(probes) / len(probes))
