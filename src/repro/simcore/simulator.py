"""The discrete-event simulator engine.

A :class:`Simulator` owns the virtual clock and the event queue.  Model
code runs inside generator-based processes (see :mod:`.process`); the
engine advances time to the next scheduled event and executes it.  With a
fixed seed the entire simulation is deterministic.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Generator, Optional

from ..errors import DeadlockError, SimulationError
from ..obs.core import NULL_OBS, Registry
from .events import EventQueue, NORMAL
from .process import Signal, SimProcess, Timeout
from .trace import Tracer


class Simulator:
    """Deterministic discrete-event simulation engine.

    One event loop over one :class:`~repro.simcore.events.EventQueue`
    (``docs/PROTOCOL.md`` §10): events run in ``(time, priority, seq)``
    order, so equal seeds give equal runs.
    """

    ff_phases = 0  # inert residue the spine reads; see ``EventQueue.push_span``

    def __init__(
        self,
        trace: bool = False,
        obs: Optional[Registry] = None,
    ):
        self.now: float = 0.0
        self._queue = EventQueue()
        self._processes: set = set()
        self._failure: Optional[BaseException] = None
        self.tracer = Tracer(self, enabled=trace)
        #: Observability registry.  Instrumentation sites record spans and
        #: counters into it; :data:`~repro.obs.core.NULL_OBS` (the default)
        #: is a no-op, so an un-instrumented run pays nothing.
        self.obs: Registry = obs if obs is not None else NULL_OBS
        #: Events executed so far (cancelled events are not counted);
        #: ``ScenarioResult.events`` and the scale bench's events/second.
        self.events_executed: int = 0

    # -- scheduling -----------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None], priority: int = NORMAL
    ):
        """Run ``action`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self._queue.push(self.now + delay, action, priority)

    def at(self, time: float, action: Callable[[], None], priority: int = NORMAL):
        """Run ``action`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past (t={time} < {self.now})")
        return self._queue.push(time, action, priority)

    # -- process management ----------------------------------------------
    def process(
        self,
        gen: Generator,
        name: str = "proc",
        daemon: bool = False,
    ):
        """Start a new simulated process running ``gen``."""
        return SimProcess(self, gen, name=name, daemon=daemon)

    def timeout(self, delay: float, value: Any = None):
        """A waitable that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def signal(self, name: str = ""):
        """A fresh one-shot :class:`~repro.simcore.process.Signal`."""
        return Signal(self, name)

    def _register(self, proc) -> None:
        self._processes.add(proc)

    def _unregister(self, proc) -> None:
        self._processes.discard(proc)

    def _report_failure(self, name: str, err: BaseException) -> None:
        """Record the first failure of a process, or of a callback that
        stands for one (``name`` is what the error message blames)."""
        if self._failure is None:
            self._failure = SimulationError(
                f"process {name!r} failed at t={self.now:.6f}: {err!r}"
            )
            self._failure.__cause__ = err

    # -- execution --------------------------------------------------------
    def run(self, until: Optional[float] = None, check_deadlock: bool = True) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  If ``check_deadlock`` and live
        non-daemon processes remain while no event can ever wake them,
        :class:`DeadlockError` is raised — this catches lost messages and
        barrier mismatches in the DSM protocol immediately.

        The cyclic collector is paused while the loop runs and the caller's
        setting restored on every way out: the loop makes no reference
        cycles, so a collection inside it would only re-walk live model
        state (``docs/PROTOCOL.md`` §10; a tier-1 guard checks it).
        """
        queue = self._queue
        executed = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            if until is None:
                # Run-to-drain fast path: no horizon check means the next
                # event can be popped directly, skipping the per-event
                # peek (this loop is the engine's innermost).
                pop = queue.pop
                while True:
                    if self._failure is not None:
                        raise self._failure
                    ev = pop()
                    if ev is None:
                        break
                    t = ev.time
                    if t < self.now - 1e-12:
                        raise SimulationError("event queue went backwards in time")
                    if t > self.now:
                        self.now = t
                    executed += 1
                    a = ev.action
                    if a.__class__ is tuple:
                        a[0](a[1], None)
                    else:
                        a()
            else:
                while True:
                    if self._failure is not None:
                        raise self._failure
                    nxt = queue.peek_time()
                    if nxt is None:
                        break
                    if nxt > until:
                        self.now = until
                        return self.now
                    ev = queue.pop()
                    assert ev is not None
                    if ev.time < self.now - 1e-12:
                        raise SimulationError("event queue went backwards in time")
                    if ev.time > self.now:
                        self.now = ev.time
                    executed += 1
                    a = ev.action
                    if a.__class__ is tuple:
                        a[0](a[1], None)
                    else:
                        a()
        finally:
            self.events_executed += executed
            if collecting:
                gc.enable()
        if self._failure is not None:
            raise self._failure
        if check_deadlock:
            stuck = [p for p in self._processes if p.alive and not p.daemon]
            if stuck:
                names = ", ".join(sorted(p.name for p in stuck))
                raise DeadlockError(
                    f"simulation deadlocked at t={self.now:.6f}; blocked: {names}"
                )
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def step(self) -> bool:
        """Execute a single event.  Returns False if the queue is empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        self.now = max(self.now, ev.time)
        self.events_executed += 1
        a = ev.action
        if a.__class__ is tuple:
            a[0](a[1], None)
        else:
            a()
        if self._failure is not None:
            raise self._failure
        return True
