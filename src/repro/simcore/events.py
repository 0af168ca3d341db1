"""Event queue primitives for the discrete-event simulator.

The queue is a binary heap ordered by ``(time, priority, seq)``.  ``seq`` is
a monotonically increasing counter so that events scheduled earlier run
earlier among equals — this makes every simulation fully deterministic.

The heap stores ``(time, priority, seq, event)`` tuples rather than the
:class:`Event` objects themselves: the heap performs millions of
comparisons per run and tuple comparison runs entirely in C, whereas
comparing events directly dispatches a Python-level ``__lt__`` per sift
step.  ``seq`` is unique, so comparisons never reach the event field.
:class:`Event` keeps its hand-written ``__lt__`` for callers that sort
events, with identical ordering semantics.
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


class Event:
    """A scheduled callback, ordered by ``(time, priority, seq)``."""

    __slots__ = ("time", "priority", "seq", "action", "cancelled")

    def __init__(self, time: float, priority: int, seq: int, action: Callable[[], None]):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        if self.priority != other.priority:
            return self.priority < other.priority
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:  # pragma: no cover - identity semantics
        return id(self)

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} prio={self.priority} seq={self.seq}{flag}>"


class EventQueue:
    """Deterministic min-heap of ``(time, priority, seq, event)`` tuples."""

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, action: Callable[[], None], priority: int = NORMAL) -> Event:
        """Schedule ``action`` at absolute ``time`` and return the event."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = next(self._seq)
        # Inline Event construction (bypassing __init__) — push runs once
        # per scheduled event and the extra call frame is measurable.
        ev = Event.__new__(Event)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.action = action
        ev.cancelled = False
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[3]
            if not ev.cancelled:
                return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event without removing it."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
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
