"""Host-speed yardstick: a fixed chunk of interpreter and numpy work.

The sandboxes this benchmark runs in change speed by tens of percent
within seconds (shared cores), so a raw host time compares nothing.
Every timed operation is therefore bracketed by one :meth:`chunk` before
and one after, and reported as ``seconds * REF_CHUNK_S / mean(chunks)`` —
the time the operation would take on a host on which one chunk lasts
exactly :data:`REF_CHUNK_S`.

The chunk deliberately uses no code of the program under test: an
optimisation of the simulator must not move the yardstick.  It mixes
the three kinds of work the simulator does (small-dict/tuple/call
traffic, pointer chasing over a heap larger than L2, numpy copies and
compares), because a neighbour on the shared core slows each kind by a
different amount and the mix tracked the simulator's slowdown with
slope ~1 when the sizes were chosen.
"""

from __future__ import annotations

import random
import time

#: Duration of one chunk on the reference host (seconds).
REF_CHUNK_S = 0.075

_NODES = 50_000
_SMALL_ITERS = 80_000
_CHASE_ITERS = 50_000
_NUMPY_ITERS = 32
_NUMPY_BYTES = 2_000_000


class _Node:
    __slots__ = ("next", "value", "fields")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = self
        self.fields = {"a": value, "b": (value, value + 1)}


class Calibrator:
    """Owns the chunk's working set (about 25 MB)."""

    def __init__(self) -> None:
        import numpy as np

        nodes = [_Node(i) for i in range(_NODES)]
        order = list(range(_NODES))
        random.Random(0).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            nodes[a].next = nodes[b]
        self._nodes = nodes
        self._cursor = nodes[0]
        self._src = np.zeros(_NUMPY_BYTES, dtype=np.uint8)
        self._dst = self._src.copy()

    def chunk(self) -> float:
        """Run one chunk; returns its wall seconds."""
        t0 = time.perf_counter()
        table: dict = {}
        trail: list = []
        push = trail.append
        acc = 0.0
        for i in range(_SMALL_ITERS):
            key = i & 1023
            table[key] = (i, acc)
            acc = _mix(acc, table[key][0])
            push(key)
            if len(trail) > 4096:
                del trail[:]
        node = self._cursor
        total = 0
        for _ in range(_CHASE_ITERS):
            total += node.fields["b"][1]
            node.value = total
            node = node.next
        self._cursor = node
        src, dst = self._src, self._dst
        for _ in range(_NUMPY_ITERS):
            dst[:] = src
            (dst[::7] != src[::7]).sum()
        return time.perf_counter() - t0


def _mix(a: float, b: int) -> float:
    return a * 1.0000001 + b


def normalised(seconds: float, chunk_before: float, chunk_after: float) -> float:
    """``seconds`` rescaled to the reference host speed."""
    return seconds * REF_CHUNK_S / ((chunk_before + chunk_after) / 2.0)
