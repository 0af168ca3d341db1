"""Event queue primitives for the discrete-event simulator.

The queue is a binary heap ordered by ``(time, priority, seq)``.  ``seq`` is
a monotonically increasing counter so that events scheduled earlier run
earlier among equals — this makes every simulation fully deterministic.

An event *is* its heap entry: a ``[time, priority, seq, action]`` list.
The heap performs millions of comparisons per run and list comparison
runs entirely in C; ``seq`` is unique, so comparisons never reach the
action.  A push allocates the entry and nothing else, and :func:`cancel`
clears the action slot in place, so a cancellable event costs no object
of its own.  ``action`` is a no-argument callable or a ``(f, value)``
pair run as ``f(value, None)``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from ..errors import SimulationError

#: Default priority; lower runs first among events at the same time.
NORMAL = 10
#: Priority for bookkeeping that must run before normal events.
URGENT = 0
#: Priority for watchers that should observe the effects of normal events.
LATE = 20


def cancel(event: list) -> None:
    """Cancel ``event`` (an entry :meth:`EventQueue.push` returned) in
    place: it is skipped when it surfaces, uncounted and without moving
    the clock.  A no-op once it ran."""
    event[3] = None


class EventQueue:
    """Deterministic min-heap of ``[time, priority, seq, action]`` entries."""

    def __init__(self) -> None:
        self._heap: list[list] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None], priority: int = NORMAL) -> list:
        """Schedule ``action`` at absolute ``time`` and return its entry."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        entry = [time, priority, next(self._seq), action]
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> Optional[list]:
        """Remove and return the next live (uncancelled) entry, or ``None``."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[3] is not None:
                return entry
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live entry without removing it."""
        heap = self._heap
        while heap and heap[0][3] is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    # Inert residue, with ``Simulator.ff_phases``: benchmarks/spine/tracer.py
    # (editable only by a [benchmark] PR) patches ``push`` / ``push_span`` on
    # both classes by name and needs each to own them.  No caller and no
    # instance in src/; ROADMAP item 2(a) deletes all three.
    push_span = push


class BatchedEventQueue(EventQueue):
    push = EventQueue.push
    push_span = EventQueue.push_span
