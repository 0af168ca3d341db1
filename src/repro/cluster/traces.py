"""Trace-driven availability: record and replay adapt-event streams.

A *trace* is a plain-text event log (`time action node [grace]` per
line, ``#`` comments allowed) — the format one would collect from a real
workstation-pool monitor.  Traces make availability scenarios shareable
and exactly repeatable, and the generator produces synthetic day/night
patterns for long-horizon experiments.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional, Sequence, TextIO, Union

from ..errors import ConfigurationError
from ..simcore import RandomStreams
from .adapt_events import EventScript, ScriptedEvent


@dataclass(frozen=True)
class AvailabilityEvent:
    """One node-availability change in a trace."""

    time: float
    action: str  # "join" | "leave" | "crash"
    node_id: int
    grace: Optional[float] = None

    def to_line(self) -> str:
        base = f"{self.time:.6f} {self.action} {self.node_id}"
        return base if self.grace is None else f"{base} {self.grace:.6f}"


def parse_trace(source: Union[str, TextIO]) -> List[AvailabilityEvent]:
    """Parse a trace from a string or file-like object."""
    if isinstance(source, str):
        source = io.StringIO(source)
    events: List[AvailabilityEvent] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ConfigurationError(f"trace line {lineno}: expected 3-4 fields, got {raw!r}")
        time_s, action, node_s = parts[:3]
        if action not in ("join", "leave", "crash"):
            raise ConfigurationError(f"trace line {lineno}: unknown action {action!r}")
        if action == "crash" and len(parts) == 4:
            raise ConfigurationError(
                f"trace line {lineno}: crash takes no grace period"
            )
        try:
            time = float(time_s)
            node = int(node_s)
            grace = float(parts[3]) if len(parts) == 4 else None
        except ValueError as err:
            raise ConfigurationError(f"trace line {lineno}: {err}") from None
        if time < 0:
            raise ConfigurationError(f"trace line {lineno}: negative time")
        events.append(AvailabilityEvent(time, action, node, grace))
    events.sort(key=lambda e: (e.time, e.node_id))
    return events


def dump_trace(events: Sequence[AvailabilityEvent]) -> str:
    """Render events back to the text format (round-trips with parse)."""
    lines = ["# time action node [grace]"]
    lines += [e.to_line() for e in sorted(events, key=lambda e: (e.time, e.node_id))]
    return "\n".join(lines) + "\n"


class TraceReplay:
    """Install a parsed trace onto an adaptive runtime."""

    def __init__(self, runtime, events: Sequence[AvailabilityEvent]):
        self.runtime = runtime
        self.events = list(events)
        self.script = EventScript(
            runtime,
            [
                ScriptedEvent(e.time, e.action, e.node_id, e.grace)  # type: ignore[arg-type]
                for e in self.events
            ],
        )

    def install(self) -> None:
        self.script.install()


def synthesize_workday(
    node_ids: Sequence[int],
    day_length: float,
    seed: int = 7,
    mean_sessions: float = 2.0,
    mean_session_length: Optional[float] = None,
    grace: Optional[float] = None,
) -> List[AvailabilityEvent]:
    """A synthetic owner-activity trace over one 'day'.

    Each node's owner shows up a Poisson number of times for
    exponentially-long sessions; node leaves the pool while the owner is
    present (the §1 NOW scenario).
    """
    if day_length <= 0:
        raise ConfigurationError("day_length must be positive")
    rng = RandomStreams(seed)
    mean_len = mean_session_length if mean_session_length else day_length / 8.0
    events: List[AvailabilityEvent] = []
    for node_id in node_ids:
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
            events.append(AvailabilityEvent(start, "leave", node_id, grace))
            events.append(AvailabilityEvent(end, "join", node_id, None))
            cursor = end
    events.sort(key=lambda e: (e.time, e.node_id))
    return events
