"""Event scripts: one grammar for adapt events, availability traces and faults.

A *plan* is a plain-text script (`time action args...` per line, ``#``
comments) describing who comes, who goes and what goes wrong, and when:

=========  ====================  ==========================================
action     arguments             effect
=========  ====================  ==========================================
join       NODE                  submit a join of the node
leave      NODE [GRACE]          submit a leave (GRACE overrides the grace
                                 policy; 0 forces an urgent leave)
crash      NODE                  fail-stop the node (kills its processes)
cut        A B                   partition nodes A and B at the switch
heal       A B                   undo the partition
degrade    NODE SECONDS          add one-way latency to the node's port
restore    NODE                  remove the degradation
duplicate  RATE                  duplicate this fraction of data messages
delay      RATE SECONDS          delay this fraction by SECONDS
=========  ====================  ==========================================

:class:`FaultInjector` is the one installer: it schedules a list of
actions — a parsed plan, or a :class:`~repro.exec.spec.ScenarioSpec`'s
adapt events lowered to actions ahead of its plan — onto a runtime's
simulator in the order given.  Everything is seeded and deterministic, so
a scenario is exactly repeatable and shareable as a file (``repro run
--adaptive --faults plan.txt``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, TextIO, Tuple, Union

from ..errors import FaultError
from ..network.faults import LinkFaults

#: action name -> (fewest, most) arguments after the timestamp.
_ARITY = {
    "join": (1, 1),
    "leave": (1, 2),
    "crash": (1, 1),
    "cut": (2, 2),
    "heal": (2, 2),
    "degrade": (2, 2),
    "restore": (1, 1),
    "duplicate": (1, 1),
    "delay": (2, 2),
}

#: Actions that make the wire lossy/duplicating — the injector latches the
#: unreliable-wire gate for these at install time, so requests already in
#: flight when the action fires are filtered consistently.  Nothing else
#: touches ``switch.faults``: a fault object on the switch alone sends
#: every message down the fault branch of ``Switch.transmit``.
_UNRELIABLE_ACTIONS = frozenset({"cut", "duplicate", "delay"})


@dataclass(frozen=True)
class FaultAction:
    """One scheduled script event."""

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
    """An ordered list of script actions (the parsed plan file)."""

    actions: List[FaultAction] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.actions = sorted(self.actions, key=lambda a: (a.time, a.action, a.args))

    def __iter__(self) -> Iterator[FaultAction]:
        return iter(self.actions)

    @property
    def crash_times(self) -> List[Tuple[float, int]]:
        """(time, node) for every scheduled crash."""
        return [(a.time, int(a.args[0])) for a in self.actions if a.action == "crash"]


def parse_plan(source: Union[str, TextIO]) -> FaultPlan:
    """Parse a plan from a string or file-like object."""
    if isinstance(source, str):
        source = io.StringIO(source)
    actions: List[FaultAction] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        time_s, action = parts[0], parts[1] if len(parts) > 1 else ""
        if action not in _ARITY:
            raise FaultError(f"plan line {lineno}: unknown action {action!r}")
        least, most = _ARITY[action]
        if not least <= len(parts) - 2 <= most:
            want = least if least == most else f"{least}-{most}"
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
    """Parse a plan from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_plan(fh)


def dump_plan(plan: FaultPlan) -> str:
    """Render a plan back to text (round-trips with :func:`parse_plan`)."""
    lines = ["# time action args"]
    lines += [a.to_line() for a in plan.actions]
    return "\n".join(lines) + "\n"


class FaultInjector:
    """Schedule script actions onto a runtime's simulator, in the order given."""

    def __init__(self, runtime, actions: Iterable[FaultAction]):
        self.runtime = runtime
        self.actions = list(actions)
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
        if any(a.action in _UNRELIABLE_ACTIONS for a in self.actions):
            # Latch the retransmit/dedup gating now, not when the first
            # lossy action fires — requests in flight across the switch-on
            # instant must be filtered under one consistent regime.
            self._link_faults().unreliable = True
        for action in self.actions:
            self.runtime.sim.at(action.time, lambda a=action: self._fire(a))

    def _fire(self, action: FaultAction) -> None:
        args = action.args
        if action.action == "join":
            self.runtime.submit_join(int(args[0]))
        elif action.action == "leave":
            grace = args[1] if len(args) > 1 else None
            self.runtime.submit_leave(int(args[0]), grace=grace)
        elif action.action == "crash":
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
