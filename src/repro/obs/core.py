"""Span/counter/instant primitives keyed on simulated time.

The observability layer records *what the simulation already did* — it
never yields, never schedules, and never touches the event queue, so an
instrumented run is bitwise-identical to an uninstrumented one (enforced
by ``tests/obs/test_identity.py``).  Instrumentation sites follow one
pattern::

    obs = sim.obs
    t0 = sim.now
    ... protocol work ...
    if obs.enabled:
        obs.span("adapt", "adapt.gc", t0, sim.now)

Point events (a crash, a freeze, a fork) are :class:`Instant` records
stamped with ``sim.now``; a site that fires a handful of times per run
calls ``obs.instant`` unguarded, one that fires per message or per page
is guarded by ``obs.enabled and obs.per_process``.

With observability off ``sim.obs`` is the shared :data:`NULL_OBS`
sentinel whose ``enabled`` is False and whose methods are no-ops, so the
only residual cost on hot paths is reading a local float.

This module is dependency-free on purpose: :mod:`repro.simcore` imports
it, so it must not import anything from the simulator stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Track names used by the built-in instrumentation.  Per-process tracks
#: are ``P0``, ``P1``, ... (one per simulated DSM process).
TRACK_ADAPT = "adapt"
TRACK_NETWORK = "network"
TRACK_MASTER = "master"


@dataclass(frozen=True)
class Span:
    """One named interval of simulated time on a track."""

    track: str
    name: str
    start: float
    end: float
    category: str = ""
    args: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Instant:
    """One point event of simulated time: ``category`` names its track
    (``adapt``, ``fault``, ``plan``, ``net``, ``tmk``, ``dsm``)."""

    time: float
    category: str
    subject: str
    detail: Any = None


@dataclass
class Counter:
    """A named accumulator (totals, not time series)."""

    name: str
    value: float = 0.0

    def add(self, delta: float) -> None:
        self.value += delta


@dataclass(frozen=True)
class ObsConfig:
    """What :func:`repro.api.run` should record and export.

    ``enabled=False`` runs with the :data:`NULL_OBS` sentinel — the
    pre-observability behaviour, bit for bit.
    """

    enabled: bool = True
    #: Record per-process spans (region bodies, barrier waits, fault
    #: waits) and the per-message / per-page instants (``net/<kind>``,
    #: ``dsm/page_fetch``, ``dsm/demote``).  These are the densest
    #: records; turning them off keeps only the adaptation/recovery/
    #: network tracks and the sparse instants.
    per_process: bool = True
    #: Write a Chrome/Perfetto ``trace.json`` here after the run.
    trace_path: Optional[str] = None
    #: Write a flat ``metrics.json`` here after the run.
    metrics_path: Optional[str] = None

    def make_registry(self) -> "Registry":
        return Registry(per_process=self.per_process) if self.enabled else NULL_OBS


class Registry:
    """Collects spans, counters and instants for one simulated run."""

    enabled = True

    def __init__(self, per_process: bool = True):
        self.per_process = per_process
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}
        #: Point events in the order they happened (so in time order).
        self.instants: List[Instant] = []

    # -- recording ------------------------------------------------------
    def span(
        self,
        track: str,
        name: str,
        start: float,
        end: float,
        category: str = "",
        **args: Any,
    ) -> None:
        """Record a completed interval of simulated time."""
        self.spans.append(
            Span(track, name, start, end, category, args or None)
        )

    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` into the counter ``name``."""
        counter = self.counters.get(name)
        if counter is None:
            self.counters[name] = Counter(name, value)
        else:
            counter.add(value)

    def instant(
        self, time: float, category: str, subject: str, detail: Any = None
    ) -> None:
        """Record a point event at simulated ``time``."""
        self.instants.append(Instant(time, category, subject, detail))

    # -- queries --------------------------------------------------------
    def select(
        self,
        track: Optional[str] = None,
        name: Optional[str] = None,
        prefix: Optional[str] = None,
    ) -> List[Span]:
        """Spans filtered by exact track/name and/or name prefix."""
        return [
            s
            for s in self.spans
            if (track is None or s.track == track)
            and (name is None or s.name == name)
            and (prefix is None or s.name.startswith(prefix))
        ]

    def select_instants(
        self, category: Optional[str] = None, subject: Optional[str] = None
    ) -> List[Instant]:
        """Instants filtered by exact category and/or subject."""
        return [
            i
            for i in self.instants
            if (category is None or i.category == category)
            and (subject is None or i.subject == subject)
        ]

    def total(self, name: Optional[str] = None, prefix: Optional[str] = None) -> float:
        """Summed simulated duration of the matching spans."""
        return sum(s.duration for s in self.select(name=name, prefix=prefix))

    def tracks(self) -> List[str]:
        """All track names (span tracks and instant categories),
        per-process tracks sorted numerically last."""
        seen = {s.track for s in self.spans}
        seen.update(i.category for i in self.instants)

        def key(track: str):
            if len(track) > 1 and track[0] == "P" and track[1:].isdigit():
                return (1, int(track[1:]), track)
            return (0, 0, track)

        return sorted(seen, key=key)

    def counter_value(self, name: str, default: float = 0.0) -> float:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def merge(self, others: Iterable["Registry"]) -> None:
        """Fold other registries' records into this one (sweep digests)."""
        for other in others:
            self.spans.extend(other.spans)
            self.instants.extend(other.instants)
            for name, counter in other.counters.items():
                self.count(name, counter.value)


class NullRegistry(Registry):
    """The disabled registry: ``enabled`` is False, methods are no-ops."""

    enabled = False

    def __init__(self):
        super().__init__(per_process=False)

    def span(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover - trivial
        return

    def count(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover - trivial
        return

    def instant(self, *args: Any, **kwargs: Any) -> None:  # pragma: no cover - trivial
        return


#: The shared disabled registry every :class:`~repro.simcore.Simulator`
#: starts with.  Never record into it.
NULL_OBS = NullRegistry()
