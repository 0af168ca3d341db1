"""Experiment harness: build a system, run a kernel, collect everything.

One entry point (:func:`run_experiment`) covers every configuration the
paper's evaluation needs: any team size, scripted or generated adapt
events, traced or materialized kernels.  Every run is on the adaptive
runtime: with no adapt event it is the standard system to the bit (the
paper's zero-overhead result, §5), so there is nothing to choose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..apps import AppKernel
from ..cluster import NodePool
from ..config import SystemConfig
from ..core import AdaptiveRuntime
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
    #: The finished runtime.  Its engines let go of their page stores
    #: and diff payloads when the run ended
    #: (:meth:`~repro.dsm.runtime.TmkRuntime.release`); stats, page
    #: tables, the interval logs' records, the plan cache and the
    #: checkpoints stay.  The final memory is ``app.final``.
    runtime: Any = field(repr=False, default=None)
    #: :class:`~repro.core.recovery.RecoveryRecord` per crash recovery.
    recoveries: List[Any] = field(default_factory=list)
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
    runtime_kwargs: Optional[Dict[str, Any]] = None,
    obs: Optional[Any] = None,
) -> ExperimentResult:
    """Run one kernel to completion under a fresh simulated NOW.

    ``adaptive`` is the label the result reports; it selects no code.
    ``runtime_kwargs`` go to :class:`~repro.core.AdaptiveRuntime`
    (checkpoint interval, failure detection, reassignment strategy).

    ``events`` is called with the runtime before the run starts; use it to
    install a plan through :class:`~repro.faults.FaultInjector`, an
    alternator, or to schedule ``submit_join``/``submit_leave`` calls
    directly.

    ``obs`` is a :class:`~repro.obs.Registry` to record spans, counters
    and instants into (None runs uninstrumented — the pre-observability
    behaviour).

    The run's page stores and diff payloads end with it: the runtime is
    released before this returns (docs/PROTOCOL.md §8).
    """
    cfg = cfg or SystemConfig()
    sim = Simulator(obs=obs)
    # cfg.perf.topology == "star" constructs the plain Switch exactly as
    # before; "fattree" swaps in the hierarchical interconnect (§11).
    switch = build_topology(sim, cfg.network, cfg.perf)
    pool = NodePool(sim, switch)
    team_nodes = pool.add_nodes(nprocs)
    pool.add_nodes(extra_nodes)
    runtime = AdaptiveRuntime(
        sim, cfg, team_nodes, pool, materialized=materialized,
        **(runtime_kwargs or {}),
    )
    app = app_factory()
    # Traced runs measure the computation, not the verification gather.
    app.do_collect = materialized
    program = app.program(runtime)
    if events is not None:
        events(runtime)
    result = runtime.run(program)
    runtime.release()
    return ExperimentResult(
        app_name=app.name,
        nprocs=nprocs,
        adaptive=adaptive,
        runtime_seconds=result.runtime_seconds,
        traffic=result.traffic,
        adaptations=result.adaptations,
        adapt_records=result.adapt_log,
        migrations=list(runtime.migrations),
        forks=result.forks,
        app=app,
        runtime=runtime,
        recoveries=list(result.recoveries),
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
            app_factory, n, cfg=cfg, materialized=materialized
        ).runtime_seconds
        for n in proc_counts
    }
