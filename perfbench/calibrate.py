"""Host-speed calibration: a fixed reference loop timed between repetitions.

The machines this benchmark runs on are shared, and their speed drifts
by up to 2x over tens of seconds while the work done stays identical.
The reference loop below is a small discrete-event kernel in pure
Python (a heap of timed events, dict updates, attribute access over a
heap of many small objects), the same kind of interpreter work the
simulator does, but it shares no code with the program, so no change
to the program can speed it up.

Host timings are reported scaled to a nominal host, one that runs the
reference loop in ``NOMINAL_S`` seconds:
``scaled = measured * NOMINAL_S / reference_s``, where ``reference_s``
is timed right before and right after the repetition.  The raw timings
are reported beside them.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Reference-loop time of the nominal host that scaled timings refer to.
NOMINAL_S = 0.08

_EVENTS = 60_000
#: Nodes the loop touches at random: megabytes, like a large fleet's heap,
#: so the loop feels cache and memory contention as the workloads do.
_NODES = 100_000
_SAMPLES = 3


class _Node:
    __slots__ = ("fired", "peer")

    def __init__(self) -> None:
        self.fired = 0
        self.peer = self


def _nodes() -> list[_Node]:
    nodes = [_Node() for __ in range(_NODES)]
    for index, node in enumerate(nodes):
        node.peer = nodes[(index * 31) % _NODES]
    return nodes


def _reference_loop(nodes: list[_Node]) -> int:
    totals: dict[int, int] = {}
    queue = [(index, index) for index in range(1024)]
    heapq.heapify(queue)
    seq = len(queue)
    for __ in range(_EVENTS):
        at, key = heapq.heappop(queue)
        slot = (key * 2654435761) % _NODES
        node = nodes[slot]
        node.fired += 1
        node.peer.fired += 1
        totals[slot & 1023] = totals.get(slot & 1023, 0) + at % 7
        seq += 1
        heapq.heappush(queue, (at + 1 + (key * 7919) % 13, seq))
    return sum(totals.values())


def reference_seconds() -> float:
    """Median wall time of a few reference-loop passes, GC paused."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        nodes = _nodes()
        for __ in range(_SAMPLES):
            began = time.perf_counter()
            _reference_loop(nodes)
            samples.append(time.perf_counter() - began)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)
