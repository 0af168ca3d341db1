"""Parallel scenario-execution engine with content-addressed caching.

The paper's evaluation is a grid of *independent* simulated runs —
kernel × node count × adaptation schedule.  This package turns each cell
into a schedulable task:

* :mod:`~repro.exec.spec` — :class:`ScenarioSpec`, a picklable,
  declarative run description with a canonical JSON form and a SHA-256
  config digest;
* :mod:`~repro.exec.result` — :class:`ScenarioResult`, the deterministic
  per-scenario output (canonical JSON, bitwise-stable);
* :mod:`~repro.exec.cache` — :class:`ResultCache`, one file per digest
  under ``benchmarks/results/cache/`` salted with ``repro.__version__``;
* :mod:`~repro.exec.pool` — :func:`run_specs`, the spawn-based worker
  pool with per-task progress, supervised retries, and spec-order merge;
* :mod:`~repro.exec.supervisor` — deadlines, the failure taxonomy, and
  the deterministic backoff/degradation policy the pool enforces;
* :mod:`~repro.exec.chaos` — the seeded fault-injection harness behind
  ``repro chaos`` (worker kills/hangs, cache corruption).

Since PR 9 the engine also has a *distributed* face — the same
spec/result/cache/supervisor layers behind a transport-agnostic
:class:`Executor` API:

* :mod:`~repro.exec.executor` — :class:`ExecutorConfig` (the one knob
  bag) and the ``local`` / ``serial`` / ``remote`` backends;
* :mod:`~repro.exec.wire` — the length-prefixed JSON socket protocol;
* :mod:`~repro.exec.service` — the :class:`Coordinator` (in-flight
  dedupe, requeue-on-death, shared cache) and the submit client;
* :mod:`~repro.exec.worker` — the :class:`Worker` leaf wrapping the
  local engine;
* :mod:`~repro.exec.merge` — ``repro cache merge``, lossless union of
  cache directories.

``repro sweep --jobs N`` is the CLI face; ``repro table1``, ``repro
perfbench`` and ``repro recovery`` run on the same engine, and ``repro
serve`` / ``repro submit`` / ``repro workers`` are the service face.
"""

from .cache import (
    CACHE_SCHEMA,
    CachedEntry,
    CacheStats,
    ResultCache,
    code_version_salt,
)
from .chaos import CHAOS_ENV, ChaosPlan, corrupt_cache_entries, run_chaos
from .executor import (
    BACKENDS,
    Executor,
    ExecutorConfig,
    LocalExecutor,
    RemoteExecutor,
    SerialExecutor,
    make_executor,
)
from .merge import MergeStats, merge_caches
from .pool import (
    SweepOutcome,
    TaskOutcome,
    default_jobs,
)
from .service import (
    Coordinator,
    ServedReport,
    ServiceCounters,
    Submission,
    service_status,
    stop_service,
    submit_outcome,
)
from .wire import WIRE_SCHEMA, ConnectionClosed, WireError
from .worker import Worker, worker_main
from .supervisor import (
    AttemptRecord,
    CacheCorrupt,
    DeadlinePolicy,
    ResourceExhausted,
    RetryPolicy,
    SupervisorPolicy,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
)
from .result import RESULT_SCHEMA, ScenarioResult
from .spec import (
    SPEC_SCHEMA,
    AdaptEvent,
    ScenarioSpec,
    spec_from_preset,
)

__all__ = [
    "AdaptEvent",
    "AttemptRecord",
    "BACKENDS",
    "CACHE_SCHEMA",
    "CHAOS_ENV",
    "CacheCorrupt",
    "CachedEntry",
    "CacheStats",
    "ChaosPlan",
    "ConnectionClosed",
    "Coordinator",
    "DeadlinePolicy",
    "Executor",
    "ExecutorConfig",
    "LocalExecutor",
    "MergeStats",
    "RESULT_SCHEMA",
    "RemoteExecutor",
    "ResourceExhausted",
    "ResultCache",
    "RetryPolicy",
    "SPEC_SCHEMA",
    "ScenarioResult",
    "ScenarioSpec",
    "SerialExecutor",
    "ServedReport",
    "ServiceCounters",
    "Submission",
    "SupervisorPolicy",
    "SweepOutcome",
    "TaskFailure",
    "TaskOutcome",
    "TaskTimeout",
    "WIRE_SCHEMA",
    "WireError",
    "Worker",
    "WorkerCrash",
    "code_version_salt",
    "corrupt_cache_entries",
    "default_jobs",
    "make_executor",
    "merge_caches",
    "run_chaos",
    "service_status",
    "spec_from_preset",
    "stop_service",
    "submit_outcome",
    "worker_main",
]
