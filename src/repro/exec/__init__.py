"""Parallel scenario-execution engine with content-addressed caching.

The paper's evaluation is a grid of *independent* simulated runs —
kernel × node count × adaptation schedule.  This package turns each cell
into a schedulable task, and has exactly one scheduler for them: the
:class:`Coordinator`, whether its workers are processes spawned for one
``--jobs N`` sweep or hosts attached to a standing service.

* :mod:`~repro.exec.spec` — :class:`ScenarioSpec`, a picklable,
  declarative run description with a canonical JSON form and a SHA-256
  config digest;
* :mod:`~repro.exec.result` — :class:`ScenarioResult`, the deterministic
  per-scenario output (canonical JSON, bitwise-stable);
* :mod:`~repro.exec.cache` — :class:`ResultCache`, one file per digest
  under ``benchmarks/results/cache/`` salted with a content hash of the
  package sources;
* :mod:`~repro.exec.pool` — :func:`run_specs`: cache pre-pass, the
  ``jobs=1`` in-process path, spec-order merge, and for ``jobs>=2`` an
  ephemeral coordinator whose N workers are the calling thread and the
  N - 1 processes a launcher keeps spawned;
* :mod:`~repro.exec.service` — the :class:`Coordinator` (queue,
  in-flight dedupe, deadlines, backoff, attempt budget, degradation,
  shared cache) and the submit client that reassembles a sweep;
* :mod:`~repro.exec.worker` — the :class:`Worker`: leases a task, runs
  the simulation, reports;
* :mod:`~repro.exec.wire` — the length-prefixed JSON socket protocol
  between them;
* :mod:`~repro.exec.supervisor` — deadlines, the failure taxonomy, and
  the deterministic backoff/degradation policy the coordinator enforces;
* :mod:`~repro.exec.chaos` — the seeded fault-injection harness behind
  ``repro chaos`` (worker kills/hangs, cache corruption).

An engine is a function ``specs -> SweepOutcome``, and there are two:
:func:`~repro.exec.pool.run_specs` (this host; :func:`repro.api.sweep`
is its facade name) and :func:`submit_outcome` (a standing coordinator,
named by its address).  ``repro sweep --jobs N`` is the CLI face of the
first and ``--coordinator HOST:PORT`` of the second; ``repro table1``
and ``repro recovery`` take the same flags, and ``repro serve`` /
``repro workers`` run the service.
"""

from .cache import (
    CACHE_SCHEMA,
    CachedEntry,
    CacheStats,
    ResultCache,
    code_version_salt,
)
from .chaos import CHAOS_ENV, ChaosPlan, corrupt_cache_entries, run_chaos
from .pool import (
    SweepOutcome,
    TaskOutcome,
    default_jobs,
)
from .service import (
    Coordinator,
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
    "CACHE_SCHEMA",
    "CHAOS_ENV",
    "CacheCorrupt",
    "CachedEntry",
    "CacheStats",
    "ChaosPlan",
    "ConnectionClosed",
    "Coordinator",
    "DeadlinePolicy",
    "RESULT_SCHEMA",
    "ResourceExhausted",
    "ResultCache",
    "RetryPolicy",
    "SPEC_SCHEMA",
    "ScenarioResult",
    "ScenarioSpec",
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
    "run_chaos",
    "service_status",
    "spec_from_preset",
    "stop_service",
    "submit_outcome",
    "worker_main",
]
