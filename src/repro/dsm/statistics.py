"""Per-process DSM statistics.

Tracks the quantities Table 1 reports (page transfers, diffs, messages are
counted by the network layer; here we track protocol-level activity) plus
timing breakdowns used by the adaptation-cost analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class DsmStats:
    """Counters of one DSM process (simulated quantities)."""

    read_faults: int = 0
    write_faults: int = 0
    page_fetches: int = 0
    diff_requests: int = 0
    diffs_fetched: int = 0
    diffs_created: int = 0
    twins_created: int = 0
    intervals_closed: int = 0
    #: Interval-log records dropped by incremental pruning (host-side
    #: memory bounding — see ``DsmProcess._prune_interval_log``; never
    #: affects simulated times or traffic).
    intervals_pruned: int = 0
    barriers: int = 0
    locks_acquired: int = 0
    gcs: int = 0
    #: Simulated seconds spent computing.
    compute_time: float = 0.0
    #: Simulated seconds blocked on page/diff fetches.
    fault_wait_time: float = 0.0
    #: Simulated seconds blocked in barriers (arrival to release).
    barrier_wait_time: float = 0.0
    #: Simulated seconds blocked acquiring locks.
    lock_wait_time: float = 0.0

    def add(self, other: "DsmStats") -> "DsmStats":
        """Elementwise sum (for team-wide aggregation)."""
        out = DsmStats()
        for f in fields(DsmStats):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def copy(self) -> "DsmStats":
        return DsmStats(**{f.name: getattr(self, f.name) for f in fields(DsmStats)})

    def delta(self, earlier: "DsmStats") -> "DsmStats":
        """Activity since ``earlier``."""
        out = DsmStats()
        for f in fields(DsmStats):
            setattr(out, f.name, getattr(self, f.name) - getattr(earlier, f.name))
        return out


@dataclass
class TeamStats:
    """Aggregate of a set of process stats plus run-level quantities."""

    per_process: dict = field(default_factory=dict)

    def total(self) -> DsmStats:
        acc = DsmStats()
        for stats in self.per_process.values():
            acc = acc.add(stats)
        return acc
