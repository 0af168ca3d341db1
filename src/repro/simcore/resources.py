"""Shared resources for simulated processes.

:class:`Resource` models a capacity-limited server (e.g. a CPU or a disk)
with FIFO queueing.  :class:`Store` is a produce/consume buffer.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .events import Event
from .process import Callback, Waitable
from .simulator import Simulator


class Hold(Waitable):
    """One use of a :class:`Resource`, queued FIFO with every other.

    Callback form (:meth:`Resource.hold`): keeps its unit for ``delay``,
    releases it, calls ``done(hold)``; ``msg`` and ``state`` are the
    caller's, in slots so no closure is built per hold.  Generator form
    (:meth:`Resource.acquire`): the acquirer is resumed holding the unit.
    """

    __slots__ = ("_resource", "_delay", "_done", "msg", "state", "_event")

    def __init__(self, resource: "Resource", delay: Optional[float] = None,
                 done: Optional[Callable] = None, msg: Any = None, state: Any = None):
        self._resource = resource
        self._delay = delay
        self._done = done
        self.msg = msg
        self.state = state
        #: While the unit is ours: the completion event (callback form),
        #: the acquirer's resume until it has run (generator form).
        self._event: Optional[Event] = None

    def subscribe(self, callback: Callback) -> None:
        self._done = callback
        self._resource._enqueue(self)

    def cancel(self, _callback: Optional[Callback] = None) -> None:
        """Leave the queue, or give the unit back (a hold in service; an
        acquirer killed between grant and resume, who will never reach its
        ``finally``).  Nothing is called; a no-op once finished or resumed."""
        event, self._event = self._event, None
        if event is None:
            self._resource._dequeue(self)
        else:
            event.cancel()
            self._resource.release()

    unsubscribe = cancel

    def _grant(self) -> None:
        # For a hold, being granted *is* starting service: no event in
        # between in which the holder could die with the unit in hand.
        sim = self._resource._sim
        if self._delay is None:
            self._event = sim._queue.push(sim.now, (self._resume, None))
        else:
            self._event = sim._queue.push(sim.now + self._delay, (self._finish, None))

    def _resume(self, _value: Any, _exc: Optional[BaseException]) -> None:
        self._event = None
        self._done(self._resource, None)

    def _finish(self, _value: Any, _exc: Optional[BaseException]) -> None:
        self._event = None
        self._resource.release()
        self._done(self)


class Resource:
    """FIFO resource with integer capacity.

    Usage from a process::

        yield cpu.acquire()
        try:
            yield sim.timeout(work)
        finally:
            cpu.release()

    or, one event per use and no process, ``cpu.hold(work, done, msg, state)``.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "res"):
        self._sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque = deque()

    def acquire(self) -> Waitable:
        """Waitable granting one unit of the resource (FIFO order)."""
        return Hold(self)

    def hold(self, delay: float, done: Callable[[Hold], None],
             msg: Any = None, state: Any = None) -> Hold:
        """Queue for a unit, keep it ``delay`` seconds, release it, call
        ``done(hold)``.  Cancellable while queued and while in service."""
        hold = Hold(self, delay, done, msg, state)
        self._enqueue(hold)
        return hold

    def release(self) -> None:
        """Return one unit and grant it to the next waiter, if any."""
        if self.in_use <= 0:
            raise RuntimeError(f"resource {self.name!r} released more than acquired")
        self.in_use -= 1
        self._drain()

    # -- internal ---------------------------------------------------------
    def _enqueue(self, req: Hold) -> None:
        self._queue.append(req)
        self._drain()

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


class Store:
    """Unbounded buffer of items with blocking ``get``.

    Semantically a :class:`~repro.simcore.channel.Channel` without message
    matching; kept separate so model code reads naturally (items vs
    messages).
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        from .channel import Channel

        self._chan = Channel(sim, name=name)
        self.name = name

    def __len__(self) -> int:
        return len(self._chan)

    def put(self, item: Any) -> None:
        self._chan.put(item)

    def get(self) -> Waitable:
        return self._chan.recv()

    def try_get(self) -> Any:
        return self._chan.try_recv()
