"""Post-run analysis: where did the time and the bytes go.

Complements the §5.4 methodology: per-process time breakdowns (compute vs
fault stalls vs synchronization), per-link traffic/utilization (the §5.4
bottleneck metric), and speedup tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .reporting import format_table


@dataclass(frozen=True)
class TimeBreakdown:
    """One process's accounting of a run."""

    pid: int
    compute: float
    fault_wait: float
    barrier_wait: float
    lock_wait: float

    @property
    def accounted(self) -> float:
        return self.compute + self.fault_wait + self.barrier_wait + self.lock_wait

    def overhead_fraction(self, runtime: float) -> float:
        """Share of the run this process spent not computing."""
        if runtime <= 0:
            return 0.0
        return max(0.0, min(1.0, 1.0 - self.compute / runtime))


def time_breakdown(result) -> List[TimeBreakdown]:
    """Per-process breakdowns from a RunResult/ExperimentResult."""
    per_process = getattr(result, "per_process", None)
    if per_process is None:
        per_process = {p: proc.stats for p, proc in result.runtime.procs.items()}
    out = []
    for pid in sorted(per_process):
        s = per_process[pid]
        out.append(
            TimeBreakdown(
                pid=pid,
                compute=s.compute_time,
                fault_wait=s.fault_wait_time,
                barrier_wait=s.barrier_wait_time,
                lock_wait=s.lock_wait_time,
            )
        )
    return out


def breakdown_table(result, runtime_seconds: Optional[float] = None) -> str:
    """Rendered per-process time-breakdown table."""
    total = runtime_seconds or result.runtime_seconds
    rows = []
    for b in time_breakdown(result):
        rows.append([
            b.pid,
            b.compute,
            b.fault_wait,
            b.barrier_wait,
            b.lock_wait,
            f"{100 * b.overhead_fraction(total):.1f}%",
        ])
    return format_table(
        ["pid", "compute (s)", "fault wait (s)", "barrier wait (s)",
         "lock wait (s)", "overhead"],
        rows,
        title=f"Time breakdown over {total:.3f}s",
    )


@dataclass(frozen=True)
class LinkReport:
    """Traffic and utilization of one directional link."""

    name: str
    bytes: int
    messages: int
    utilization: float


def link_reports(result) -> List[LinkReport]:
    """Per-link traffic from the run's switch (needs result.runtime):
    every directional link of the topology, fat-tree trunks included."""
    elapsed = result.runtime_seconds
    return [
        LinkReport(
            name=link.name,
            bytes=link.bytes_carried,
            messages=link.messages_carried,
            utilization=link.utilization(elapsed),
        )
        for link in result.runtime.switch.iter_links()
    ]


def busiest_links(result, top: int = 5) -> List[LinkReport]:
    """The §5.4 bottleneck view: links ordered by bytes carried."""
    return sorted(link_reports(result), key=lambda l: (-l.bytes, l.name))[:top]


def link_table(result, top: int = 10) -> str:
    rows = [
        [l.name, l.bytes, l.messages, f"{100 * l.utilization:.2f}%"]
        for l in busiest_links(result, top)
    ]
    return format_table(
        ["link", "bytes", "messages", "utilization"],
        rows,
        title="Busiest directional links (§5.4: the max determines adaptation cost)",
    )


def speedup_table(times_by_nprocs: Dict[int, float]) -> str:
    """Speedup/efficiency table from {nprocs: runtime}."""
    if 1 not in times_by_nprocs:
        raise ValueError("need the 1-process time as the baseline")
    t1 = times_by_nprocs[1]
    rows = []
    for n in sorted(times_by_nprocs):
        t = times_by_nprocs[n]
        s = t1 / t if t > 0 else float("inf")
        rows.append([n, t, f"{s:.2f}", f"{100 * s / n:.1f}%"])
    return format_table(
        ["procs", "time (s)", "speedup", "efficiency"],
        rows,
        title="Scaling",
    )


def adaptation_timeline(result) -> List[dict]:
    """Adaptation events of a run in chronological, plottable form."""
    out = []
    for rec in result.adapt_records:
        out.append(
            {
                "time": rec.time,
                "kind": (
                    "urgent-leave" if rec.urgent_leaves
                    else "leave" if rec.leaves
                    else "join"
                ),
                "nodes": rec.joins + rec.leaves + rec.urgent_leaves,
                "team": (rec.nprocs_before, rec.nprocs_after),
                "cost": rec.duration,
                "drained_pages": rec.drained_pages,
                "max_link_bytes": rec.max_link_bytes,
            }
        )
    return out
