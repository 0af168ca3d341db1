"""Supervision policy for the scenario-execution engine.

This module holds the *policy* half of the resilience layer: how long a
task may run (:class:`DeadlinePolicy`), how failures are classified (the
:class:`TaskFailure` taxonomy), how retries are paced
(:class:`RetryPolicy` — seeded exponential backoff with deterministic
jitter), and when a sweep should stop trusting the pool entirely and
degrade to in-process serial execution (:class:`SupervisorPolicy`).

The *mechanism* half lives in exactly one place: the
:class:`~repro.exec.service.Coordinator` stamps every assignment with a
deadline, paces requeues with the backoff, counts attempts against the
one budget and consecutive failures against ``degrade_after`` — for a
local ``--jobs N`` sweep and for a multi-host service alike, because a
local sweep *is* a coordinator whose workers are the caller and spawned
processes
(:func:`repro.exec.pool.run_specs`).  Keeping the policy pure (no
processes, no clocks beyond arithmetic) makes every decision
unit-testable and, critically, **deterministic**: two sweeps over the
same specs with the same supervisor seed compute identical backoff
schedules, so chaos runs are reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ExecError
from .spec import ScenarioSpec

__all__ = [
    "TaskFailure",
    "WorkerCrash",
    "TaskTimeout",
    "CacheCorrupt",
    "ResourceExhausted",
    "AttemptRecord",
    "RetryPolicy",
    "DeadlinePolicy",
    "SupervisorPolicy",
    "seeded_unit",
]


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------
class TaskFailure(ExecError):
    """A task-level failure with a machine-readable ``kind``.

    Every terminal failure the supervisor can attribute carries the spec,
    its digest and the attempt count, so a sweep that gives up does so
    with a structured, attributed report rather than a bare traceback.
    """

    kind = "failure"

    def __init__(self, message: str, spec: Optional[ScenarioSpec] = None,
                 attempts: int = 0):
        super().__init__(message)
        self.spec = spec
        self.digest = spec.config_digest() if spec is not None else ""
        self.attempts = attempts


class WorkerCrash(TaskFailure):
    """The worker process died without reporting (signal, ``os._exit``)."""

    kind = "worker_crash"


class TaskTimeout(TaskFailure):
    """The task overran its wall-clock deadline and was reaped."""

    kind = "task_timeout"


class CacheCorrupt(TaskFailure):
    """A cache entry failed its integrity check and was quarantined."""

    kind = "cache_corrupt"


class ResourceExhausted(TaskFailure):
    """The host refused resources (pipe/process creation failed)."""

    kind = "resource_exhausted"


#: Kind -> class, in reporting order (stable across runs): how a failure
#: that crossed the wire as an ``error`` frame becomes a typed exception
#: again on the submitting side.
FAILURES = {cls.kind: cls for cls in
            (WorkerCrash, TaskTimeout, CacheCorrupt, ResourceExhausted)}
FAILURE_KINDS = tuple(FAILURES)


# ---------------------------------------------------------------------------
# per-attempt accounting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptRecord:
    """One execution attempt of one task, as the supervisor saw it."""

    attempt: int
    #: ``"ok"`` or a :class:`TaskFailure` kind.
    outcome: str
    wall_seconds: float = 0.0
    worker: int = -1
    #: Human-readable detail (exit code, deadline, quarantine path...).
    detail: str = ""
    #: Backoff slept *before* this attempt (0.0 for the first).
    backoff_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "wall_seconds": self.wall_seconds,
            "worker": self.worker,
            "detail": self.detail,
            "backoff_seconds": self.backoff_seconds,
        }


# ---------------------------------------------------------------------------
# deterministic jitter
# ---------------------------------------------------------------------------
def seeded_unit(*parts) -> float:
    """A deterministic float in [0, 1) derived from hashing ``parts``.

    The same parts always yield the same value, independent of process,
    platform and ``PYTHONHASHSEED`` — the engine's only randomness source,
    so retry schedules (and chaos plans) replay exactly.
    """
    key = ":".join(str(p) for p in parts).encode()
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


# ---------------------------------------------------------------------------
# retry pacing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with deterministic jitter.

    ``max_attempts`` counts *executions*, not retries — the one spelling
    of the attempt budget (the default 2 is one run plus one retry).
    The delay before attempt ``a`` (a >= 2) is::

        d = min(max_delay, base_delay * multiplier ** (a - 2))
        sleep in [d * (1 - jitter), d]     # jittered deterministically

    where the jitter fraction comes from ``sha256(seed:key:a)`` — two
    runs with the same seed back off identically, and distinct tasks
    de-synchronize instead of thundering back in lockstep.
    """

    max_attempts: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def validate(self) -> "RetryPolicy":
        if self.max_attempts < 1:
            raise ExecError("retry max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ExecError("retry delays must be >= 0")
        if not (0.0 <= self.jitter <= 1.0):
            raise ExecError("retry jitter must be in [0, 1]")
        if self.multiplier < 1.0:
            raise ExecError("retry multiplier must be >= 1")
        return self

    def backoff(self, key: str, attempt: int) -> float:
        """Seconds to wait before executing ``attempt`` (1-based)."""
        if attempt <= 1:
            return 0.0
        delay = min(self.max_delay,
                    self.base_delay * self.multiplier ** (attempt - 2))
        unit = seeded_unit(self.seed, key, attempt)
        return delay * (1.0 - self.jitter * unit)


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DeadlinePolicy:
    """Per-task wall-clock deadlines derived from the spec.

    The deadline scales with a crude cost proxy (``nprocs`` x the product
    of the spec's numeric parameters) but never drops below
    ``floor_seconds`` — worker spawn plus interpreter/numpy import costs
    about a second before the simulation even starts, so a floor
    calibrated well above that keeps healthy tasks from ever being
    reaped.  Set ``floor_seconds=0`` with a tiny ``overhead_seconds``
    only in tests that *want* timeouts.
    """

    floor_seconds: float = 30.0
    overhead_seconds: float = 10.0
    #: Seconds granted per unit of the cost proxy.
    per_cost_seconds: float = 1e-4

    def validate(self) -> "DeadlinePolicy":
        if self.floor_seconds < 0 or self.overhead_seconds < 0:
            raise ExecError("deadline seconds must be >= 0")
        if self.per_cost_seconds < 0:
            raise ExecError("deadline per_cost_seconds must be >= 0")
        return self

    @staticmethod
    def cost_proxy(spec: ScenarioSpec) -> float:
        """A unitless work estimate: nprocs x product(numeric params)."""
        cost = float(max(1, spec.nprocs))
        for value in spec.params.values():
            if isinstance(value, (int, float)) and value > 0:
                cost *= float(value)
        return cost

    def deadline_for(self, spec: ScenarioSpec) -> float:
        """Wall-clock budget in seconds for one attempt of ``spec``."""
        scaled = (self.overhead_seconds
                  + self.cost_proxy(spec) * self.per_cost_seconds)
        return max(self.floor_seconds, scaled)


# ---------------------------------------------------------------------------
# the aggregate policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SupervisorPolicy:
    """Everything the coordinator needs to supervise a sweep.

    ``degrade_after`` is the graceful-degradation ladder's trigger: after
    that many *consecutive* failed attempts (crashes, timeouts, resource
    exhaustion — anywhere in the sweep) the coordinator stops trusting
    its workers and hands every unfinished task back; a local sweep then
    finishes them serially in process, which cannot crash-loop and
    produces bitwise-identical results.  Set it to 0 to disable
    degradation (what a standing service does: it has no in-process path
    to fall back to).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    degrade_after: int = 3

    def validate(self) -> "SupervisorPolicy":
        self.retry.validate()
        self.deadline.validate()
        if self.degrade_after < 0:
            raise ExecError("degrade_after must be >= 0")
        return self
