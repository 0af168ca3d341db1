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

    __slots__ = ("time", "priority", "seq", "action", "cancelled", "span")

    def __init__(self, time: float, priority: int, seq: int, action: Callable[[], None]):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.cancelled = False
        #: True for quiescent compute-span completions (see ``push_span``):
        #: events whose execution the engine may fast-forward through when
        #: nothing else is outstanding.  Ordering and execution semantics
        #: are unaffected; the flag only feeds the quiescence counter.
        self.span = False

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
    """Deterministic min-heap of ``(time, priority, seq, event)`` tuples.

    The queue under a bare ``Simulator()`` and the *order oracle* of the
    batched engine: :class:`BatchedEventQueue` must pop the exact
    sequence this heap does (``tests/simcore/test_batched_order.py``).
    """

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
        ev.span = False
        heapq.heappush(self._heap, (time, priority, seq, ev))
        return ev

    def push_span(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule a compute-span completion.

        The reference engine has no fast-forward, so this is a plain
        :meth:`push` — the flag changes nothing about ordering or
        execution, which is what keeps the two engines bitwise identical.
        """
        ev = self.push(time, action)
        ev.span = True
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


class BatchedEventQueue:
    """Bucketed deterministic queue for the macro-event engine.

    Same ordering contract as :class:`EventQueue` — events run in
    ``(time, priority, seq)`` order — but organized for batch draining:
    the heap holds one entry per *distinct* ``(time, priority)`` key and a
    dict maps each live key to its bucket, a list of events in push (=
    ``seq``) order behind a consume cursor.  Pushing at a live key is a
    plain list append with zero heap traffic, which is the common case for
    same-time event cascades (message delivery chains, signal fan-out).

    Ordering is exactly the reference order: within a bucket, push order
    is ``seq`` order; across buckets, keys compare as ``(time, priority)``
    and ``seq`` never decides between distinct keys, so the heap of unique
    keys reproduces the reference heap's total order.

    The bucket cell is the bare :class:`Event` while a key holds a single
    event — the overwhelmingly common case for staggered timeouts and
    compute spans — and is promoted to ``[cursor, ev0, ev1, ...]`` (index
    0 is the next un-consumed position, starting at 1) on the second
    same-key push.  Singletons therefore cost no list allocation and no
    cursor maintenance.  The simulator's batched drain reads
    ``_heap``/``_buckets`` directly and distinguishes the two layouts with
    one ``__class__ is list`` check.

    ``_nonspan`` counts the un-consumed events that are *not* compute-span
    completions.  When it reaches zero the queue is *quiescent*: everything
    outstanding is a pre-computed span completion, and the engine may
    fast-forward through the buckets in key order without per-event heap
    maintenance (see ``Simulator._run_batched``).  The counter is
    conservative by construction: an event cancelled in place stays
    counted until its bucket is drained, so quiescence is never declared
    while a non-span event could still run.

    ``_draining``/``_preempted`` implement the priority-preemption check
    as a push-side flag: while the engine drains bucket ``_draining``, a
    push that creates a *smaller* key (URGENT at the current time) sets
    ``_preempted``, and the drain yields its bucket.  This moves the
    reference engine's per-event heap-top comparison to the rare
    preempting push.
    """

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._buckets: dict = {}
        self._seq = itertools.count()
        #: Un-consumed events that are not span completions (quiescence
        #: is ``_nonspan == 0``); maintained by push and every drain path.
        self._nonspan = 0
        #: Key of the bucket the engine is currently draining, or None.
        self._draining: Optional[tuple] = None
        #: Set by push when a new key preempts ``_draining``.
        self._preempted = False

    def __len__(self) -> int:
        return sum(
            len(cell) - cell[0] if cell.__class__ is list else 1
            for cell in self._buckets.values()
        )

    def push(self, time: float, action: Callable[[], None], priority: int = NORMAL) -> Event:
        """Schedule ``action`` at absolute ``time`` and return the event."""
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        ev = Event.__new__(Event)
        ev.time = time
        ev.priority = priority
        ev.seq = next(self._seq)
        ev.action = action
        ev.cancelled = False
        ev.span = False
        self._nonspan += 1
        key = (time, priority)
        buckets = self._buckets
        cell = buckets.get(key)
        if cell is None:
            buckets[key] = ev
            heapq.heappush(self._heap, key)
            d = self._draining
            if d is not None and key < d:
                # A smaller key than the bucket being drained can only
                # appear through a push (smaller live keys would have
                # drained first), so this flag is exactly the reference
                # heap-top comparison.
                self._preempted = True
        elif cell.__class__ is list:
            cell.append(ev)
        else:
            buckets[key] = [1, cell, ev]
        return ev

    def push_span(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule a compute-span completion (quiescence-exempt event)."""
        ev = self.push(time, action)
        ev.span = True
        self._nonspan -= 1
        return ev

    def pop(self) -> Optional[Event]:
        """Remove and return the next non-cancelled event, or ``None``."""
        heap = self._heap
        buckets = self._buckets
        while heap:
            key = heap[0]
            cell = buckets.get(key)
            if cell is None:  # stale key: bucket fully drained earlier
                heapq.heappop(heap)
                continue
            if cell.__class__ is not list:
                del buckets[key]
                if heap[0] is key:
                    heapq.heappop(heap)
                if not cell.span:
                    self._nonspan -= 1
                if not cell.cancelled:
                    return cell
                continue
            i = cell[0]
            n = len(cell)
            while i < n:
                ev = cell[i]
                i += 1
                if not ev.span:
                    self._nonspan -= 1
                if not ev.cancelled:
                    cell[0] = i
                    if i == n:
                        del buckets[key]
                        if heap[0] is key:
                            heapq.heappop(heap)
                    return ev
            cell[0] = i
            del buckets[key]
            if heap[0] is key:
                heapq.heappop(heap)
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event without removing it."""
        heap = self._heap
        buckets = self._buckets
        while heap:
            key = heap[0]
            cell = buckets.get(key)
            if cell is None:
                heapq.heappop(heap)
                continue
            if cell.__class__ is not list:
                if not cell.cancelled:
                    return key[0]
                if not cell.span:
                    self._nonspan -= 1
                del buckets[key]
                if heap[0] is key:
                    heapq.heappop(heap)
                continue
            i = cell[0]
            n = len(cell)
            while i < n and cell[i].cancelled:
                if not cell[i].span:
                    self._nonspan -= 1
                i += 1
            cell[0] = i
            if i < n:
                return key[0]
            del buckets[key]
            if heap[0] is key:
                heapq.heappop(heap)
        return None
