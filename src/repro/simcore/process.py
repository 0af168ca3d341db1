"""Coroutine-style simulated processes.

A simulated process is a Python generator that ``yield``s *waitables*:

* :class:`Timeout` — resume after simulated time passes,
* :class:`Signal` — resume when another process fires the signal,
* a :class:`SimProcess` — resume when that process terminates (join),
* anything else implementing :class:`Waitable`.

The value sent back into the generator is the waitable's result (e.g. the
message received on a channel, or the value passed to ``Signal.fire``).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..errors import SimulationError
from . import events as _ev

#: Callback signature used by waitables: (value, exception).
Callback = Callable[[Any, Optional[BaseException]], None]


class Waitable:
    """Base class for objects a simulated process may ``yield`` on."""

    __slots__ = ()

    def subscribe(self, callback: Callback) -> None:
        """Arrange for ``callback(value, exc)`` to run when ready."""
        raise NotImplementedError

    def unsubscribe(self, callback: Callback) -> None:
        """Best-effort cancellation of a pending subscription."""
        raise NotImplementedError


class Timeout(Waitable):
    """Resumes the waiter after ``delay`` simulated seconds."""

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self._sim = sim
        self.delay = delay
        self.value = value
        self._event: Optional[list] = None

    def subscribe(self, callback: Callback) -> None:
        self._event = self._sim._queue.push(
            self._sim.now + self.delay, (callback, self.value)
        )

    def unsubscribe(self, callback: Callback) -> None:
        if self._event is not None:
            _ev.cancel(self._event)
            self._event = None


class Signal(Waitable):
    """A one-shot broadcast event.

    Processes yielding on a signal are resumed (in subscription order) when
    :meth:`fire` is called.  Subscribing after the signal fired resumes the
    subscriber immediately with the fired value.
    """

    def __init__(self, sim: "Simulator", name: str = ""):
        self._sim = sim
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callback] = []

    def subscribe(self, callback: Callback) -> None:
        if self.fired:
            self._sim._queue.push(self._sim.now, (callback, self.value))
        else:
            self._waiters.append(callback)

    def unsubscribe(self, callback: Callback) -> None:
        try:
            self._waiters.remove(callback)
        except ValueError:
            pass

    def fire(self, value: Any = None) -> None:
        """Fire the signal, resuming all current waiters."""
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        push = self._sim._queue.push
        now = self._sim.now
        for cb in waiters:
            push(now, (cb, value))


class SimProcess(Waitable):
    """A running simulated process wrapping a generator.

    Yielding a :class:`SimProcess` from another process joins it: the
    waiter resumes with the process's return value when it terminates.
    """

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Waitable, Any, Any],
        name: str = "proc",
        daemon: bool = False,
    ):
        self._sim = sim
        self._gen = gen
        self.name = name
        self.daemon = daemon
        self.alive = True
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Completion signal, created lazily on the first join — most
        #: processes are never joined.
        self._done: Optional[Signal] = None
        self._current_wait: Optional[Waitable] = None
        #: ``self._step``, bound once (a waitable is handed this on every
        #: yield); dropped by ``_finish`` so a finished process is freed
        #: by reference count, not left as a cycle for the collector.
        self._resume_cb: Optional[Callback] = self._step
        sim._queue.push(sim.now, (self._step, None), priority=_ev.NORMAL)
        sim._register(self)

    # -- Waitable interface (join) ------------------------------------
    def _done_signal(self) -> Signal:
        done = self._done
        if done is None:
            done = self._done = Signal(self._sim, name=f"{self.name}.done")
            if not self.alive:
                # Terminated before anyone joined: pre-fire so late
                # subscribers resume immediately, as Signal guarantees.
                done.fired = True
                done.value = self.result
        return done

    def subscribe(self, callback: Callback) -> None:
        self._done_signal().subscribe(callback)

    def unsubscribe(self, callback: Callback) -> None:
        self._done_signal().unsubscribe(callback)

    # -- engine --------------------------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        if not self.alive:
            return
        self._current_wait = None
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self._finish(result=stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - report through simulator
            self._finish(error=err)
            self._sim._report_failure(self.name, err)
            return
        if not isinstance(target, Waitable):
            err = SimulationError(
                f"process {self.name!r} yielded non-waitable {target!r}"
            )
            self._finish(error=err)
            self._sim._report_failure(self.name, err)
            return
        self._current_wait = target
        target.subscribe(self._resume_cb)

    def _finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        self.alive = False
        self.result = result
        self.error = error
        self._resume_cb = None
        self._sim._unregister(self)
        done = self._done
        if done is not None:
            done.fire(result)

    def kill(self) -> None:
        """Fail-stop termination: the process stops where it stands.

        Nothing is thrown *into* the generator at a resumption point it can
        react to — the generator is closed on the spot (``finally`` blocks
        still run, so held resources are released) and any pending wait is
        cancelled.  This models a node losing power mid-computation.
        Killing a dead process is a no-op.
        """
        if not self.alive:
            return
        if self._current_wait is not None:
            self._current_wait.unsubscribe(self._resume_cb)
            self._current_wait = None
        try:
            self._gen.close()
        except BaseException as err:  # noqa: BLE001 - a finally block misbehaved
            self._finish(error=err)
            self._sim._report_failure(self.name, err)
            return
        self._finish(result=None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "alive" if self.alive else "done"
        return f"<SimProcess {self.name} {state}>"


# Resolved lazily to avoid a circular import at type-check time.
from .simulator import Simulator  # noqa: E402  (re-export for typing)
