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

import importlib

#: The public names by the submodule that defines them.  Each is imported
#: on first use (PEP 562), so ``import repro.api`` loads the spec, result,
#: cache and pool modules only: the service, wire, worker and chaos
#: modules (and ``socket``) load when a ``--jobs N`` sweep, ``serve`` or
#: ``submit`` first needs them.
_EXPORTS = {
    "cache": ("CACHE_SCHEMA", "CachedEntry", "CacheStats", "ResultCache",
              "code_version_salt"),
    "chaos": ("CHAOS_ENV", "ChaosPlan", "corrupt_cache_entries", "run_chaos"),
    "pool": ("SweepOutcome", "TaskOutcome", "default_jobs"),
    "service": ("Coordinator", "ServiceCounters", "Submission",
                "service_status", "stop_service", "submit_outcome"),
    "wire": ("WIRE_SCHEMA", "ConnectionClosed", "WireError"),
    "worker": ("Worker", "worker_main"),
    "supervisor": ("AttemptRecord", "CacheCorrupt", "DeadlinePolicy",
                   "ResourceExhausted", "RetryPolicy", "SupervisorPolicy",
                   "TaskFailure", "TaskTimeout", "WorkerCrash"),
    "result": ("RESULT_SCHEMA", "ScenarioResult"),
    "spec": ("SPEC_SCHEMA", "AdaptEvent", "ScenarioSpec", "spec_from_preset"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
