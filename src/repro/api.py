r"""The public facade: one way in for every consumer.

Every driver — the CLI, the perf/recovery benches, the pytest benchmark
grids, user scripts — builds a :class:`ScenarioSpec` and calls
:func:`run` (one scenario) or :func:`sweep` (many, parallel + cached).
:class:`RunReport` bundles everything a run produces: the deterministic
:class:`~repro.exec.result.ScenarioResult` payload, the live
:class:`~repro.bench.harness.ExperimentResult` (runtime, app, records),
the per-phase :class:`~repro.obs.CostBreakdown`, and export handles for
the Chrome trace / metrics files.

Typical use::

    from repro.api import AdaptEvent, ObsConfig, run, spec_from_preset

    spec = spec_from_preset("tiny", "jacobi", 8).replaced(
        adaptive=True, events=(AdaptEvent("leave", 0.5, 3),)
    )
    report = run(spec, obs=ObsConfig(trace_path="trace.json"))
    print(report.cost_breakdown.adaptation_seconds)

The facade also fronts the distributed sweep service (docs/SERVICE.md):
:func:`serve` starts a coordinator and :func:`submit` streams
:class:`RunReport`\ s back from one::

    with serve(cache_dir="cache") as coordinator:
        for report in submit(specs, coordinator.address):
            print(report.spec.display_name, report.deduped)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional, Sequence

from .errors import ExecError
# ``sweep`` *is* the engine: run many scenarios, parallel + cached, results
# in spec order and bitwise-identical to serial execution.
from .exec.pool import SweepOutcome, execute_spec, run_specs as sweep
from .exec.result import ScenarioResult
from .exec.spec import AdaptEvent, ScenarioSpec, spec_from_preset
from .obs import CostBreakdown, ObsConfig, Registry
from .obs.export import write_chrome_trace, write_metrics

__all__ = [
    "AdaptEvent",
    "ObsConfig",
    "RunReport",
    "ScenarioSpec",
    "SweepOutcome",
    "run",
    "serve",
    "spec_from_preset",
    "submit",
    "sweep",
]


@dataclass
class RunReport:
    """Everything one :func:`run` call produced."""

    #: The spec that ran.
    spec: ScenarioSpec
    #: Deterministic simulated outputs (cache/serialization form).
    result: ScenarioResult
    #: The live experiment: ``.runtime``, ``.app``, adapt/migration
    #: records, the underlying :class:`~repro.dsm.runtime.RunResult`.
    experiment: Any = field(repr=False, default=None)
    #: Span/counter registry (None when the run was unobserved).
    registry: Optional[Registry] = field(repr=False, default=None)
    #: Per-phase adaptation-cost decomposition (None when unobserved).
    cost_breakdown: Optional[CostBreakdown] = None
    #: Wall-clock seconds of the simulation.
    wall_seconds: float = 0.0

    # -- service-streamed reports (:func:`submit`) ------------------------
    #: Position of :attr:`spec` in the submitted batch (-1 for local runs).
    index: int = -1
    #: Served from the coordinator's cache without executing.
    cached: bool = False
    #: Coalesced onto another in-flight submission of the same digest.
    deduped: bool = False
    #: Remote worker that executed the scenario ("" locally / for hits).
    worker_id: str = ""

    # -- export handles ---------------------------------------------------
    def _require_registry(self) -> Registry:
        if self.registry is None:
            raise ValueError(
                "this run was not observed; pass obs=ObsConfig() to run()"
            )
        return self.registry

    def _meta(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.display_name,
            "digest": self.spec.config_digest(),
        }

    def write_trace(self, path: str) -> str:
        """Write the Chrome/Perfetto ``trace.json``; returns ``path``."""
        write_chrome_trace(self._require_registry(), path, meta=self._meta())
        return path

    def write_metrics(self, path: str) -> str:
        """Write the flat ``metrics.json``; returns ``path``."""
        write_metrics(
            self._require_registry(),
            path,
            breakdown=self.cost_breakdown,
            result=self.result.to_dict(),
        )
        return path


def run(
    spec: ScenarioSpec,
    *,
    obs: Optional[ObsConfig] = None,
) -> RunReport:
    """Execute one scenario; the single public run entry point.

    ``obs=None`` (and ``ObsConfig(enabled=False)``) runs uninstrumented —
    bitwise-identical to the pre-observability engine.
    """
    registry: Optional[Registry] = None
    if obs is not None and obs.enabled:
        registry = obs.make_registry()
    experiment, wall = execute_spec(spec, obs=registry)
    result = ScenarioResult.from_experiment(
        experiment, events=experiment.runtime.sim.events_executed
    )
    report = RunReport(
        spec=spec,
        result=result,
        experiment=experiment,
        registry=registry,
        cost_breakdown=experiment.cost_breakdown,
        wall_seconds=wall,
    )
    if obs is not None and registry is not None:
        if obs.trace_path:
            report.write_trace(obs.trace_path)
        if obs.metrics_path:
            report.write_metrics(obs.metrics_path)
    return report


# ---------------------------------------------------------------------------
# the distributed sweep service (docs/SERVICE.md)
# ---------------------------------------------------------------------------
def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache_dir: Optional[str] = None,
    cache: Any = None,
    no_cache: bool = False,
    max_attempts: Optional[int] = None,
):
    """Start a sweep-service coordinator; returns it already listening.

    The coordinator accepts workers (``repro workers``) and submissions
    (:func:`submit` / ``repro submit``) on ``host:port`` (``port=0``
    binds an ephemeral port — read it back from ``.address``).  Results
    land in the shared content-addressed cache named by ``cache_dir``
    (or an explicit :class:`~repro.exec.cache.ResultCache`); ``None``
    uses the default cache location.  ``max_attempts`` is the service's
    spelling of the one attempt budget (``policy.retry.max_attempts``,
    default 3).  Use as a context manager or call ``.stop()``;
    ``.serve_forever()`` is the ``repro serve`` foreground.
    """
    from .config import EXEC_CACHE_DIR
    from .exec.cache import ResultCache
    from .exec.service import Coordinator, service_policy

    if no_cache:
        if cache is not None or cache_dir is not None:
            raise ExecError("no_cache=True excludes cache/cache_dir")
        cache = None
    elif cache is None:
        cache = ResultCache(root=cache_dir or EXEC_CACHE_DIR)
    elif cache_dir is not None:
        raise ExecError("pass cache_dir or cache, not both")
    return Coordinator(
        host=host,
        port=port,
        cache=cache,
        policy=service_policy(max_attempts),
    ).start()


def submit(
    specs: Sequence[ScenarioSpec],
    coordinator: str,
    *,
    no_cache: bool = False,
    refresh: bool = False,
) -> Iterator[RunReport]:
    """Submit a batch to a running coordinator; stream the reports back.

    Yields one :class:`RunReport` per spec **in completion order** (the
    ``index`` field says which spec; cache hits arrive first, executed
    results as workers finish them).  Identical concurrent submissions
    are deduped coordinator-side: every submitter still receives its
    full report stream, but the simulation runs once
    (``report.deduped`` marks the attached copies).  Streamed reports
    carry no live ``experiment``/``registry`` — the simulation ran in
    another process; everything deterministic is in ``result``.
    """
    from .exec.service import Submission

    specs = list(specs)
    sub = Submission(specs, coordinator, no_cache=no_cache, refresh=refresh)
    for served in sub:
        yield RunReport(
            spec=served.spec,
            result=served.result,
            wall_seconds=served.wall_seconds,
            index=served.index,
            cached=served.cached,
            deduped=served.deduped,
            worker_id=served.worker_id,
        )
    if sub.handed_back:
        raise ExecError(
            f"the coordinator degraded and handed {len(sub.handed_back)} "
            f"scenario(s) back unexecuted")
