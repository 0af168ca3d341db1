"""Declarative fault plans: record and replay failure scenarios.

A *fault plan* is a plain-text script in the same spirit as the
availability traces (`time action args...` per line, ``#`` comments),
describing what goes wrong and when:

=========  ====================  ==========================================
action     arguments             effect
=========  ====================  ==========================================
crash      NODE                  fail-stop the node (kills its processes)
cut        A B                   partition nodes A and B at the switch
heal       A B                   undo the partition
degrade    NODE SECONDS          add one-way latency to the node's port
restore    NODE                  remove the degradation
duplicate  RATE                  duplicate this fraction of data messages
delay      RATE SECONDS          delay this fraction by SECONDS
=========  ====================  ==========================================

:class:`FaultInjector` schedules a parsed plan onto a runtime's simulator;
everything is seeded and deterministic, so a failure scenario is exactly
repeatable and shareable as a file (``repro run --faults plan.txt``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import List, Sequence, TextIO, Tuple, Union

from ..errors import FaultError
from ..network.faults import LinkFaults

#: action name -> number of arguments after the timestamp.
_ACTIONS = {
    "crash": 1,
    "cut": 2,
    "heal": 2,
    "degrade": 2,
    "restore": 1,
    "duplicate": 1,
    "delay": 2,
}

#: Actions that make the wire lossy/duplicating — the injector latches the
#: unreliable-wire gate for these at install time, so requests already in
#: flight when the action fires are filtered consistently.
_UNRELIABLE_ACTIONS = frozenset({"cut", "duplicate", "delay"})


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault event."""

    time: float
    action: str
    args: Tuple[float, ...]

    def to_line(self) -> str:
        rendered = " ".join(
            str(int(a)) if float(a).is_integer() else f"{a:.6f}" for a in self.args
        )
        return f"{self.time:.6f} {self.action} {rendered}"


@dataclass
class FaultPlan:
    """An ordered list of fault actions (the parsed plan file)."""

    actions: List[FaultAction] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.actions = sorted(self.actions, key=lambda a: (a.time, a.action, a.args))

    @property
    def crash_times(self) -> List[Tuple[float, int]]:
        """(time, node) for every scheduled crash."""
        return [(a.time, int(a.args[0])) for a in self.actions if a.action == "crash"]

    def needs_reliability(self) -> bool:
        """Does any action require the reliable-request wire gating?"""
        return any(a.action in _UNRELIABLE_ACTIONS for a in self.actions)


def parse_plan(source: Union[str, TextIO]) -> FaultPlan:
    """Parse a fault plan from a string or file-like object."""
    if isinstance(source, str):
        source = io.StringIO(source)
    actions: List[FaultAction] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        time_s, action = parts[0], parts[1] if len(parts) > 1 else ""
        if action not in _ACTIONS:
            raise FaultError(f"plan line {lineno}: unknown action {action!r}")
        want = _ACTIONS[action]
        if len(parts) != 2 + want:
            raise FaultError(
                f"plan line {lineno}: {action} takes {want} argument(s), "
                f"got {len(parts) - 2}"
            )
        try:
            time = float(time_s)
            args = tuple(float(a) for a in parts[2:])
        except ValueError as err:
            raise FaultError(f"plan line {lineno}: {err}") from None
        if time < 0:
            raise FaultError(f"plan line {lineno}: negative time")
        actions.append(FaultAction(time, action, args))
    return FaultPlan(actions)


def parse_plan_file(path) -> FaultPlan:
    """Parse a fault plan from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plan(fh)


def dump_plan(plan: FaultPlan) -> str:
    """Render a plan back to text (round-trips with :func:`parse_plan`)."""
    lines = ["# time action args"]
    lines += [a.to_line() for a in plan.actions]
    return "\n".join(lines) + "\n"


class FaultInjector:
    """Schedule a :class:`FaultPlan` onto a runtime's simulator."""

    def __init__(self, runtime, plan: FaultPlan):
        self.runtime = runtime
        self.plan = plan
        self.fired: List[FaultAction] = []
        self._installed = False

    def _link_faults(self) -> LinkFaults:
        """The wire's fault state: a lossy wire's own, or a new one."""
        switch = self.runtime.switch
        if switch.faults is None:
            switch.faults = LinkFaults()
        return switch.faults

    def install(self) -> None:
        """Schedule every action; must run before (or during) the run."""
        if self._installed:
            raise FaultError("fault plan already installed")
        self._installed = True
        if self.plan.needs_reliability():
            # Latch the retransmit/dedup gating now, not when the first
            # lossy action fires — requests in flight across the switch-on
            # instant must be filtered under one consistent regime.
            self._link_faults().unreliable = True
        for action in self.plan.actions:
            self.runtime.sim.at(action.time, lambda a=action: self._fire(a))

    def _fire(self, action: FaultAction) -> None:
        args = action.args
        if action.action == "crash":
            self.runtime.inject_crash(int(args[0]))
        elif action.action == "cut":
            self._link_faults().cut(int(args[0]), int(args[1]))
        elif action.action == "heal":
            self._link_faults().heal(int(args[0]), int(args[1]))
        elif action.action == "degrade":
            self._link_faults().degrade(int(args[0]), args[1])
        elif action.action == "restore":
            self._link_faults().restore(int(args[0]))
        elif action.action == "duplicate":
            self._link_faults().set_duplicate(args[0])
        elif action.action == "delay":
            self._link_faults().set_delay(args[0], args[1])
        else:  # pragma: no cover - parse_plan rejects unknown actions
            raise FaultError(f"unknown action {action.action!r}")
        self.fired.append(action)
        self.runtime.sim.tracer.emit("fault", action.action, action.to_line())
