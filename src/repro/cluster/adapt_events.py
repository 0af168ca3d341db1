"""Adapt-event generators for experiments.

The paper deliberately leaves event generation out of scope ("a daemon may
generate events at set times according to an operational schedule, or a
load sensor may be employed").  A timed schedule is a plan in the one
script grammar (:mod:`repro.faults.plan`), installed by
:class:`~repro.faults.FaultInjector`; this module generates what a
script cannot state:

* :func:`synthesize_workday` — the Poisson owner model as data: a
  :class:`~repro.faults.FaultPlan` of leaves and joins over one "day";
* :class:`PeriodicAlternator` — Table 2's experiment: alternately leave
  and re-join, at most one adapt event per adaptation point, targeting
  the *end* or a *middle* process id.  It reacts to each request's
  completion, so it stays a daemon.
"""

from __future__ import annotations

from typing import Generator, List, Literal, Optional, Sequence, Tuple, Union

from ..core.adaptation import RequestState
from ..errors import AdaptationError, ConfigurationError
from ..faults.plan import FaultAction, FaultPlan
from ..simcore import RandomStreams

Action = Literal["join", "leave"]
PidSelector = Union[int, Literal["end", "middle"]]


def synthesize_workday(
    node_ids: Sequence[int],
    day_length: float,
    seed: int = 7,
    mean_sessions: float = 2.0,
    mean_session_length: Optional[float] = None,
    grace: Optional[float] = None,
) -> FaultPlan:
    """A synthetic owner-activity plan over one 'day'.

    Each node's owner shows up a Poisson number of times for
    exponentially-long sessions; the node leaves the pool while the owner
    is present (the §1 NOW scenario) and rejoins when they go.
    """
    if day_length <= 0:
        raise ConfigurationError("day_length must be positive")
    rng = RandomStreams(seed)
    mean_len = mean_session_length if mean_session_length else day_length / 8.0
    actions: List[FaultAction] = []
    for node_id in node_ids:
        leave = (node_id,) if grace is None else (node_id, grace)
        stream = rng.stream(f"trace.{node_id}")
        sessions = stream.poisson(mean_sessions)
        starts = sorted(float(stream.uniform(0, day_length)) for _ in range(sessions))
        cursor = 0.0
        for start in starts:
            if start < cursor:
                continue  # overlapping session: owner already present
            length = float(stream.exponential(mean_len))
            end = min(start + length, day_length * 0.98)
            if end <= start:
                continue
            actions.append(FaultAction(start, "leave", leave))
            actions.append(FaultAction(end, "join", (node_id,)))
            cursor = end
    return FaultPlan(actions)


def select_pid(nprocs: int, selector: PidSelector) -> int:
    """Resolve Table 2's leaver choice: 'end' (highest pid) or 'middle'."""
    if isinstance(selector, int):
        if not 0 < selector < nprocs:
            raise AdaptationError(f"pid selector {selector} outside team of {nprocs}")
        return selector
    if selector == "end":
        return nprocs - 1
    if selector == "middle":
        return nprocs // 2
    raise AdaptationError(f"unknown pid selector {selector!r}")


class PeriodicAlternator:
    """Alternate leave/join of a chosen process id (Table 2's workload).

    Waits for each adapt event to complete before scheduling the next, so
    at most a single join or a single leave happens per adaptation point,
    matching the paper's measurement setup.
    """

    def __init__(
        self,
        runtime,
        selector: PidSelector = "end",
        gap: float = 1.0,
        max_events: Optional[int] = None,
        grace: Optional[float] = None,
        start_delay: float = 0.0,
    ):
        if gap < 0:
            raise AdaptationError("gap must be >= 0")
        self.runtime = runtime
        self.selector = selector
        self.gap = gap
        self.max_events = max_events
        self.grace = grace
        self.start_delay = start_delay
        #: (time_submitted, action, node_id, completed_at)
        self.events: List[Tuple[float, Action, int, Optional[float]]] = []

    def install(self) -> None:
        self.runtime.sim.process(self._run(), name="alternator", daemon=True)

    def _wait_done(self, req) -> Generator:
        sim = self.runtime.sim
        while req.state not in (RequestState.DONE, RequestState.CANCELLED):
            if self.runtime.finished:
                return
            yield sim.timeout(0.05)

    def _run(self) -> Generator:
        runtime = self.runtime
        sim = runtime.sim
        yield sim.timeout(self.start_delay)
        count = 0
        while not runtime.finished and (
            self.max_events is None or count < self.max_events
        ):
            # leave the node currently holding the selected pid
            pid = select_pid(runtime.team.nprocs, self.selector)
            node_id = runtime.team.node_of(pid)
            req = runtime.submit_leave(node_id, grace=self.grace)
            if req is None:
                return
            yield from self._wait_done(req)
            if runtime.finished:
                return
            self.events.append((req.submitted_at, "leave", node_id, req.completed_at))
            count += 1
            if self.max_events is not None and count >= self.max_events:
                return
            yield sim.timeout(self.gap)

            # bring the same node back in
            jreq = runtime.submit_join(node_id)
            yield from self._wait_done(jreq)
            if runtime.finished:
                return
            self.events.append((jreq.submitted_at, "join", node_id, jreq.completed_at))
            count += 1
            yield sim.timeout(self.gap)
