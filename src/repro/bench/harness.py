"""Experiment harness: build a system, run a kernel, collect everything.

One entry point (:func:`run_experiment`) covers every configuration the
paper's evaluation needs: standard vs adaptive runtime, any team size,
scripted or generated adapt events, traced or materialized kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..apps import AppKernel
from ..cluster import NodePool
from ..config import SystemConfig
from ..core import AdaptiveRuntime
from ..dsm import TmkRuntime
from ..network import TrafficSnapshot, build_topology
from ..simcore import Simulator


@dataclass
class ExperimentResult:
    """Everything one run produces."""

    app_name: str
    nprocs: int
    adaptive: bool
    runtime_seconds: float
    traffic: TrafficSnapshot
    adaptations: int
    adapt_records: List[Any]
    migrations: List[Any]
    forks: int
    app: AppKernel
    runtime: Any = field(repr=False, default=None)
    #: :class:`~repro.core.recovery.RecoveryRecord` per crash recovery.
    recoveries: List[Any] = field(default_factory=list)
    dropped: int = 0
    retransmissions: int = 0
    heartbeats_sent: int = 0
    heartbeat_misses: int = 0
    false_suspicions: int = 0
    #: The underlying :class:`~repro.dsm.runtime.RunResult`.
    run_result: Any = field(repr=False, default=None)
    #: :class:`~repro.obs.CostBreakdown` when the run was observed.
    cost_breakdown: Any = None

    @property
    def pages(self) -> int:
        return self.traffic.pages

    @property
    def megabytes(self) -> float:
        return self.traffic.megabytes

    @property
    def messages(self) -> int:
        return self.traffic.messages

    @property
    def diffs(self) -> int:
        return self.traffic.diffs


def run_experiment(
    app_factory: Callable[[], AppKernel],
    nprocs: int,
    adaptive: bool = False,
    extra_nodes: int = 0,
    cfg: Optional[SystemConfig] = None,
    materialized: bool = False,
    events: Optional[Callable[[Any], Any]] = None,
    trace: bool = False,
    runtime_kwargs: Optional[Dict[str, Any]] = None,
    obs: Optional[Any] = None,
) -> ExperimentResult:
    """Run one kernel to completion under a fresh simulated NOW.

    ``events`` is called with the runtime before the run starts; use it to
    install a plan through :class:`~repro.faults.FaultInjector`, an
    alternator, or to schedule ``submit_join``/``submit_leave`` calls
    directly.

    ``obs`` is a :class:`~repro.obs.Registry` to record spans/counters
    into (None runs uninstrumented — the pre-observability behaviour).
    """
    cfg = cfg or SystemConfig()
    sim = Simulator(trace=trace, obs=obs)
    # cfg.perf.topology == "star" constructs the plain Switch exactly as
    # before; "fattree" swaps in the hierarchical interconnect (§11).
    switch = build_topology(sim, cfg.network, cfg.perf)
    pool = NodePool(sim, switch)
    team_nodes = pool.add_nodes(nprocs)
    pool.add_nodes(extra_nodes)
    if adaptive:
        runtime = AdaptiveRuntime(
            sim, cfg, team_nodes, pool, materialized=materialized,
            **(runtime_kwargs or {}),
        )
    else:
        runtime = TmkRuntime(sim, cfg, team_nodes, materialized=materialized)
    app = app_factory()
    # Traced runs measure the computation, not the verification gather.
    app.do_collect = materialized
    program = app.program(runtime)
    if events is not None:
        events(runtime)
    result = runtime.run(program)
    return ExperimentResult(
        app_name=app.name,
        nprocs=nprocs,
        adaptive=adaptive,
        runtime_seconds=result.runtime_seconds,
        traffic=result.traffic,
        adaptations=result.adaptations,
        adapt_records=result.adapt_log,
        migrations=list(getattr(runtime, "migrations", [])),
        forks=result.forks,
        app=app,
        runtime=runtime,
        recoveries=list(result.recoveries),
        dropped=result.network.dropped,
        retransmissions=result.network.retransmissions,
        heartbeats_sent=result.detector.heartbeats_sent,
        heartbeat_misses=result.detector.heartbeat_misses,
        false_suspicions=result.detector.false_suspicions,
        run_result=result,
        cost_breakdown=result.cost_breakdown,
    )


def nonadaptive_times(
    app_factory: Callable[[], AppKernel],
    proc_counts: List[int],
    cfg: Optional[SystemConfig] = None,
    materialized: bool = False,
) -> Dict[int, float]:
    """Standard-system runtimes at several team sizes (the reference data
    the paper interpolates when computing adaptation delay)."""
    return {
        n: run_experiment(
            app_factory, n, adaptive=False, cfg=cfg, materialized=materialized
        ).runtime_seconds
        for n in proc_counts
    }
