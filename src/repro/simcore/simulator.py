"""The discrete-event simulator engine.

A :class:`Simulator` owns the virtual clock and the event queue.  Model
code runs inside generator-based processes (see :mod:`.process`); the
engine advances time to the next scheduled event and executes it.  With a
fixed seed the entire simulation is deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

import heapq

from ..errors import DeadlockError, SimulationError
from ..obs.core import NULL_OBS, Registry
from .events import BatchedEventQueue, EventQueue, NORMAL
from .process import ComputeSpan, Signal, SimProcess, Timeout
from .trace import Tracer


class Simulator:
    """Deterministic discrete-event simulation engine.

    ``batch=True`` selects the macro-event engine every experiment runs
    on (:func:`repro.bench.harness.run_experiment`): a bucketed queue
    whose ``(time, priority)`` runs drain in one call (see
    :class:`~repro.simcore.events.BatchedEventQueue`).  The default
    event-by-event engine over :class:`~repro.simcore.events.EventQueue`
    is not a second experiment path but the *order oracle*: the
    hypothesis suite ``tests/simcore/test_batched_order.py`` checks the
    batched drain against it event for event, and it is what a bare
    ``Simulator()`` gives unit tests, the micro-benchmarks and
    ``calibrate_spin``.
    """

    def __init__(
        self,
        trace: bool = False,
        obs: Optional[Registry] = None,
        batch: bool = False,
    ):
        self.now: float = 0.0
        self.batch = batch
        self._queue = BatchedEventQueue() if batch else EventQueue()
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
        #: Quiescent phases the batched engine fast-forwarded through
        #: (incremented once per engagement, not per event — it exists so
        #: tests can assert the fast-forward path actually ran).
        self.ff_phases: int = 0

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

    def compute_span(self, delay: float, value: Any = None):
        """A timeout marked as a quiescent compute-span completion.

        Use for pre-computed work charges that no other event can alter
        (application CPU bursts).  Behaviour is identical to
        :meth:`timeout`; the batched engine additionally fast-forwards
        through phases where *only* span completions are outstanding.
        """
        return ComputeSpan(self, delay, value)

    def signal(self, name: str = ""):
        """A fresh one-shot :class:`~repro.simcore.process.Signal`."""
        return Signal(self, name)

    def _register(self, proc) -> None:
        self._processes.add(proc)

    def _unregister(self, proc) -> None:
        self._processes.discard(proc)

    def _report_failure(self, proc, err: BaseException) -> None:
        if self._failure is None:
            self._failure = SimulationError(
                f"process {proc.name!r} failed at t={self.now:.6f}: {err!r}"
            )
            self._failure.__cause__ = err

    # -- execution --------------------------------------------------------
    def run(self, until: Optional[float] = None, check_deadlock: bool = True) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the final simulated time.  If ``check_deadlock`` and live
        non-daemon processes remain while no event can ever wake them,
        :class:`DeadlockError` is raised — this catches lost messages and
        barrier mismatches in the DSM protocol immediately.
        """
        if self.batch:
            return self._run_batched(until, check_deadlock)
        queue = self._queue
        executed = 0
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

    def _run_batched(self, until: Optional[float], check_deadlock: bool) -> float:
        """Macro-event drain: consume whole ``(time, priority)`` runs.

        Executes the exact reference event order.  The only subtlety is
        priority preemption: an action may push at the *current* time with
        a smaller priority (``SimProcess.interrupt`` schedules URGENT at
        ``now``), in which case the reference heap would run that event
        before the rest of the current run — the queue's push sets
        ``_preempted`` when a new key undercuts the bucket being drained,
        and the drain yields its bucket.  Same-key pushes append to the
        live bucket and are consumed by the same drain, which is what
        makes same-time cascades (message chains, signal fan-out) cheap.
        Singleton buckets (the bare-Event cell layout) take a dedicated
        path with no cursor bookkeeping and no preemption flag: the
        bucket is consumed before its action runs, so the main loop's
        next heap read already sees any preempting push.
        """
        queue = self._queue
        heap = queue._heap
        buckets = queue._buckets
        pop_key = heapq.heappop
        executed = 0
        try:
            while heap:
                if not queue._nonspan and until is None:
                    # Analytic fast-forward (quiescence): every outstanding
                    # event is a compute-span completion.  A span action
                    # can only push NORMAL-priority events at the current
                    # time or later — a same-key push appends to the live
                    # bucket, a later key cannot preempt — so while
                    # quiescence holds the drain needs no preemption check
                    # and no horizon check: advance clock and buckets in
                    # the cheapest possible loop.  The first action that
                    # schedules a non-span event (a message, a fault, an
                    # adaptation trigger) flips ``_nonspan`` and control
                    # returns to the fully-checked drain below.
                    self.ff_phases += 1
                    while heap and not queue._nonspan:
                        key = heap[0]
                        cell = buckets.get(key)
                        if cell is None:  # stale key from an earlier drain
                            pop_key(heap)
                            continue
                        t = key[0]
                        if cell.__class__ is not list:
                            # Singleton bucket: consume it outright, then
                            # run the action (any same-key re-push starts
                            # a fresh bucket and re-enters the heap).
                            del buckets[key]
                            if heap[0] is key:
                                pop_key(heap)
                            if not cell.span:
                                queue._nonspan -= 1
                            if cell.cancelled:
                                continue
                            if self._failure is not None:
                                raise self._failure
                            if t > self.now:
                                self.now = t
                            executed += 1
                            a = cell.action
                            if a.__class__ is tuple:
                                a[0](a[1], None)
                            else:
                                a()
                            continue
                        i = cell[0]
                        while i < len(cell):
                            ev = cell[i]
                            i += 1
                            if not ev.span:
                                queue._nonspan -= 1
                            if ev.cancelled:
                                continue
                            if self._failure is not None:
                                cell[0] = i
                                raise self._failure
                            # Advance only for a live event — a bucket of
                            # nothing but cancellations must not move the
                            # clock (the reference pop() skips those
                            # without advancing).
                            if t > self.now:
                                self.now = t
                            executed += 1
                            a = ev.action
                            if a.__class__ is tuple:
                                a[0](a[1], None)
                            else:
                                a()
                            if queue._nonspan:
                                break
                        cell[0] = i
                        if i == len(cell):
                            del buckets[key]
                            if heap[0] is key:
                                pop_key(heap)
                    continue
                key = heap[0]
                cell = buckets.get(key)
                if cell is None:  # stale key: bucket fully drained earlier
                    pop_key(heap)
                    continue
                t = key[0]
                if cell.__class__ is not list:
                    # Singleton bucket.  Cancelled singletons are consumed
                    # without touching the clock (the reference pop()
                    # skips them without advancing), and the horizon check
                    # only fires for a live event.
                    if cell.cancelled:
                        del buckets[key]
                        if heap[0] is key:
                            pop_key(heap)
                        if not cell.span:
                            queue._nonspan -= 1
                        continue
                    if until is not None and t > until:
                        self.now = until
                        return self.now
                    del buckets[key]
                    if heap[0] is key:
                        pop_key(heap)
                    if not cell.span:
                        queue._nonspan -= 1
                    if self._failure is not None:
                        raise self._failure
                    if t > self.now:
                        self.now = t
                    elif t < self.now - 1e-12:
                        raise SimulationError("event queue went backwards in time")
                    executed += 1
                    a = cell.action
                    if a.__class__ is tuple:
                        a[0](a[1], None)
                    else:
                        a()
                    continue
                if until is not None and t > until:
                    # Mirror the reference peek: only a live (non-cancelled)
                    # event beyond the horizon stops the run.
                    i = cell[0]
                    n = len(cell)
                    while i < n and cell[i].cancelled:
                        if not cell[i].span:
                            queue._nonspan -= 1
                        i += 1
                    cell[0] = i
                    if i == n:
                        del buckets[key]
                        if heap[0] is key:
                            pop_key(heap)
                        continue
                    self.now = until
                    return self.now
                # Skip a cancelled prefix before touching the clock: the
                # reference engine's pop() consumes cancelled events
                # without advancing time, so an all-cancelled bucket must
                # leave ``now`` where it was.
                i = cell[0]
                n = len(cell)
                while i < n and cell[i].cancelled:
                    if not cell[i].span:
                        queue._nonspan -= 1
                    i += 1
                cell[0] = i
                if i == n:
                    del buckets[key]
                    if heap[0] is key:
                        pop_key(heap)
                    continue
                if t > self.now:
                    self.now = t
                elif t < self.now - 1e-12:
                    raise SimulationError("event queue went backwards in time")
                queue._draining = key
                queue._preempted = False
                preempted = False
                while i < len(cell):  # actions may append to this bucket
                    ev = cell[i]
                    i += 1
                    if not ev.span:
                        queue._nonspan -= 1
                    if ev.cancelled:
                        continue
                    if self._failure is not None:
                        cell[0] = i
                        queue._draining = None
                        raise self._failure
                    executed += 1
                    a = ev.action
                    if a.__class__ is tuple:
                        a[0](a[1], None)
                    else:
                        a()
                    if queue._preempted:
                        queue._preempted = False
                        preempted = True
                        break
                queue._draining = None
                cell[0] = i
                if not preempted:
                    del buckets[key]
                    if heap and heap[0] is key:
                        pop_key(heap)
        finally:
            self.events_executed += executed
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
