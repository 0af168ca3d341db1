"""Recovery-time benchmark: crash-recovery cost vs. checkpoint interval.

Sweeps the checkpoint interval for a Jacobi run that loses one slave node
to a fail-stop crash mid-computation.  The §4.3 trade-off appears
directly: short intervals pay frequent image writes but lose little work
on a crash; long intervals run faster fault-free but replay more
iterations after recovery.

Recovery replays the driver to the restored checkpoint's fork, so the
work lost is what ran between that checkpoint and the detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence


@dataclass
class RecoveryPoint:
    """One cell of the interval sweep."""

    checkpoint_interval: Optional[float]
    runtime_seconds: float
    fault_free_seconds: float
    checkpoints_taken: int
    detection_latency: float
    restore_seconds: float
    lost_work_seconds: float
    verified: Optional[bool]

    @property
    def overhead_seconds(self) -> float:
        """Total cost of the crash plus the checkpointing, vs. fault-free."""
        return self.runtime_seconds - self.fault_free_seconds


def recovery_sweep(
    intervals: Sequence[Optional[float]] = (None, 0.05, 0.1, 0.2, 0.4),
    nprocs: int = 4,
    crash_fraction: float = 0.55,
    n: int = 96,
    iterations: int = 30,
    verify: bool = True,
    sweep: Optional[Callable] = None,
) -> List[RecoveryPoint]:
    """Run the sweep; ``None`` in ``intervals`` means no checkpointing.

    The crash is injected at ``crash_fraction`` of the fault-free runtime,
    on the node hosting the last pid — the same instant for every
    interval, so the points are directly comparable.

    ``sweep`` is the engine the runs go through, ``specs ->``
    :class:`~repro.exec.SweepOutcome`: :func:`repro.api.sweep` with the
    worker count and cache bound (``functools.partial``), or
    :func:`repro.exec.submit_outcome` with a coordinator's address.
    Default: :func:`repro.api.sweep` at ``jobs=1``, uncached.
    """
    from ..exec.spec import AdaptEvent, ScenarioSpec

    if sweep is None:
        from ..api import sweep as api_sweep

        sweep = partial(api_sweep, jobs=1)

    base_spec = ScenarioSpec(
        kernel="jacobi", params={"n": n, "iterations": iterations},
        nprocs=nprocs, adaptive=True, materialized=True,
        extra_nodes=1, label="recovery-baseline",
    )
    baseline = sweep([base_spec]).results[0]
    crash_at = baseline.runtime_seconds * crash_fraction

    specs = [
        base_spec.replaced(
            events=(AdaptEvent("crash", crash_at),),  # node of the last pid
            checkpoint_interval=interval,
            failure_detection=True,
            label=f"recovery-ckpt-{'off' if interval is None else interval}",
        )
        for interval in intervals
    ]
    outcome = sweep(specs)

    points: List[RecoveryPoint] = []
    for interval, res in zip(intervals, outcome.results):
        rec = res.recoveries[0] if res.recoveries else None
        points.append(RecoveryPoint(
            checkpoint_interval=interval,
            runtime_seconds=res.runtime_seconds,
            fault_free_seconds=baseline.runtime_seconds,
            checkpoints_taken=res.checkpoints_taken,
            detection_latency=rec["detection_latency"] if rec else 0.0,
            restore_seconds=rec["restore_seconds"] if rec else 0.0,
            lost_work_seconds=rec["lost_work_seconds"] if rec else 0.0,
            verified=res.verified if verify else None,
        ))
    return points


def sweep_rows(points: Sequence[RecoveryPoint]) -> List[List]:
    """Rows for :func:`~repro.bench.reporting.format_table`."""
    rows = []
    for p in points:
        rows.append([
            "off" if p.checkpoint_interval is None else f"{p.checkpoint_interval:.2f}",
            f"{p.runtime_seconds:.3f}",
            f"{p.overhead_seconds:.3f}",
            p.checkpoints_taken,
            f"{p.detection_latency * 1e3:.0f}",
            f"{p.restore_seconds:.3f}",
            f"{p.lost_work_seconds:.3f}",
            {True: "OK", False: "MISMATCH", None: "-"}[p.verified],
        ])
    return rows
