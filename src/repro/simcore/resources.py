"""Shared resources for simulated protocol work.

:class:`Resource` models a capacity-limited server (e.g. a node's handler
CPU) with FIFO queueing; a :class:`Hold` is one use of it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .events import cancel
from .simulator import Simulator


class Hold:
    """One use of a :class:`Resource`, queued FIFO with every other: keeps
    its unit for ``delay``, releases it, calls ``done(hold)``.  ``msg`` and
    ``state`` are the caller's, in slots so no closure is built per hold."""

    __slots__ = ("_resource", "_delay", "_done", "msg", "state", "_event")

    def __init__(self, resource: "Resource", delay: float, done: Callable,
                 msg: Any = None, state: Any = None):
        self._resource = resource
        self._delay = delay
        self._done = done
        self.msg = msg
        self.state = state
        #: The completion event while the unit is ours.
        self._event: Optional[list] = None

    def cancel(self) -> None:
        """Leave the queue, or give the unit back; ``done`` is not called.
        A no-op once finished."""
        event, self._event = self._event, None
        if event is None:
            self._resource._dequeue(self)
        else:
            cancel(event)
            self._resource.release()

    def _grant(self) -> None:
        # Being granted *is* starting service: no event in between in which
        # the holder could die with the unit in hand.
        sim = self._resource._sim
        self._event = sim._queue.push(sim.now + self._delay, (self._finish, None))

    def _finish(self, _value: Any, _exc: Optional[BaseException]) -> None:
        self._event = None
        self._resource.release()
        self._done(self)


class Resource:
    """FIFO resource with integer capacity, used one :meth:`hold` at a
    time: ``cpu.hold(work, done, msg, state)`` is one event per use and
    no process."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "res"):
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque = deque()

    def hold(self, delay: float, done: Callable[[Hold], None],
             msg: Any = None, state: Any = None) -> Hold:
        """Queue for a unit, keep it ``delay`` seconds, release it, call
        ``done(hold)``.  Cancellable while queued and while in service."""
        hold = Hold(self, delay, done, msg, state)
        if not self._queue and self.in_use < self.capacity:
            # Idle: nobody to overtake, so the unit is granted at once.
            self.in_use += 1
            hold._grant()
        else:
            self._queue.append(hold)
            self._drain()
        return hold

    def release(self) -> None:
        """Return one unit and grant it to the next waiter, if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"resource {self.name!r} released more than acquired")
        self.in_use -= 1
        self._drain()

    # -- internal ---------------------------------------------------------
    def _dequeue(self, req: Hold) -> None:
        try:
            self._queue.remove(req)
        except ValueError:
            pass

    def _drain(self) -> None:
        while self._queue and self.in_use < self.capacity:
            req = self._queue.popleft()
            self.in_use += 1
            req._grant()
