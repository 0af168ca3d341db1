"""Seeded chaos harness for the scenario-execution engine.

The harness has two halves:

* **Worker-side fault injection.**  A :class:`ChaosPlan` serialized to a
  JSON file and pointed at by ``REPRO_EXEC_CHAOS`` makes every worker
  consult :func:`worker_fault` right before running its spec.  Decisions
  are *stateless and deterministic*: each (digest, attempt) pair hashes
  to the same verdict in every process, so a plan that kills attempt 1
  of a task kills it in every replay — and, because faults are bounded
  by ``max_*_per_task``, the retry ladder always converges.

* **Host-side cache corruption.**  :func:`corrupt_cache_entries`
  deterministically truncates or bit-flips stored cache entries, which
  the integrity layer in :mod:`repro.exec.cache` must detect, quarantine
  and re-execute.

:func:`run_chaos` ties it together for ``repro chaos``: a fault-free
baseline sweep, a chaos sweep under the plan, and a corruption round
against a warm cache — asserting bitwise identity throughout and
returning a structured report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..errors import ExecError
from .spec import ScenarioSpec
from .supervisor import seeded_unit

#: Points workers at a JSON-serialized :class:`ChaosPlan`.
CHAOS_ENV = "REPRO_EXEC_CHAOS"

#: Schema tag for plan files and chaos reports.
CHAOS_SCHEMA = "repro-chaos-plan/1"


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, bounded description of the faults to inject.

    Rates are per-(task, attempt) probabilities in [0, 1], resolved
    deterministically from ``seed`` — no RNG state, no clock.  Kills and
    hangs are capped per task so retries eventually run clean; slowdowns
    are benign (they only waste time) and uncapped.
    """

    seed: int = 0
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    slow_rate: float = 0.0
    #: How long a "hung" worker sleeps; make it comfortably larger than
    #: the deadline under test so the monitor, not luck, ends it.
    hang_seconds: float = 30.0
    slow_seconds: float = 0.2
    max_kills_per_task: int = 1
    max_hangs_per_task: int = 1

    def validate(self) -> "ChaosPlan":
        for name in ("kill_rate", "hang_rate", "slow_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ExecError(f"chaos {name} must be in [0, 1]")
        if self.hang_seconds < 0 or self.slow_seconds < 0:
            raise ExecError("chaos durations must be >= 0")
        return self

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema"] = CHAOS_SCHEMA
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ChaosPlan":
        d = dict(d)
        schema = d.pop("schema", CHAOS_SCHEMA)
        if schema != CHAOS_SCHEMA:
            raise ExecError(f"unsupported chaos plan schema {schema!r}")
        return cls(**d).validate()

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), sort_keys=True,
                                   separators=(",", ":")) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ChaosPlan":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- decisions ---------------------------------------------------------
    def decide(self, digest: str, attempt: int) -> Optional[Tuple[str, float]]:
        """The fault for (task digest, attempt), or None to run clean.

        Kills dominate hangs dominate slowdowns when several rates fire.
        A kill on attempt ``a`` only happens while ``a`` is within the
        per-task cap — because decisions are stateless, "how many kills
        this task has already suffered" is exactly ``attempt - 1``.
        """
        if (self.kill_rate > 0.0 and attempt <= self.max_kills_per_task
                and seeded_unit(self.seed, "kill", digest, attempt)
                < self.kill_rate):
            return ("kill", 0.0)
        if (self.hang_rate > 0.0 and attempt <= self.max_hangs_per_task
                and seeded_unit(self.seed, "hang", digest, attempt)
                < self.hang_rate):
            return ("hang", self.hang_seconds)
        if (self.slow_rate > 0.0
                and seeded_unit(self.seed, "slow", digest, attempt)
                < self.slow_rate):
            return ("slow", self.slow_seconds)
        return None


def active_plan() -> Optional[ChaosPlan]:
    """The plan named by ``REPRO_EXEC_CHAOS``, or None."""
    path = os.environ.get(CHAOS_ENV)
    if not path:
        return None
    return ChaosPlan.load(path)


def worker_fault(digest: str, attempt: int) -> None:
    """Called by a :class:`~repro.exec.worker.Worker` before executing a
    spec (``attempt`` is the one the coordinator stamped on the task).

    Applies the active plan's decision for this (digest, attempt):
    ``kill`` hard-exits the process (a crash, not an exception), ``hang``
    sleeps past any reasonable deadline, ``slow`` naps briefly and then
    runs normally.  No plan, no effect.
    """
    plan = active_plan()
    if plan is None:
        return
    decision = plan.decide(digest, attempt)
    if decision is None:
        return
    fault, seconds = decision
    if fault == "kill":
        os._exit(43)
    elif fault == "hang":
        time.sleep(seconds)
        os._exit(44)  # a reaped hang should never get here
    elif fault == "slow":
        time.sleep(seconds)


# ---------------------------------------------------------------------------
# host-side cache corruption
# ---------------------------------------------------------------------------
def corrupt_cache_entries(root: Union[str, Path], seed: int = 0,
                          count: int = 1,
                          modes: Sequence[str] = ("truncate", "bitflip"),
                          ) -> List[Tuple[Path, str]]:
    """Deterministically damage up to ``count`` cache entries.

    Entries are chosen and damaged by hashing (seed, filename), so the
    same cache contents + seed corrupt identically.  Returns
    [(path, mode)] for the report.  ``truncate`` cuts the file mid-JSON;
    ``bitflip`` flips one bit inside the stored result payload.
    """
    root = Path(root)
    entries = sorted(p for p in root.glob("*.json"))
    if not entries:
        return []
    ranked = sorted(entries, key=lambda p: seeded_unit(seed, "pick", p.name))
    damaged: List[Tuple[Path, str]] = []
    for path in ranked[:max(0, count)]:
        mode = modes[int(seeded_unit(seed, "mode", path.name) * len(modes))
                     % len(modes)]
        raw = path.read_bytes()
        if mode == "truncate":
            keep = max(1, int(len(raw) * 0.5))
            path.write_bytes(raw[:keep])
        elif mode == "bitflip":
            if not raw:
                continue
            pos = int(seeded_unit(seed, "pos", path.name) * len(raw)) % len(raw)
            flipped = bytes([raw[pos] ^ 0x01])
            path.write_bytes(raw[:pos] + flipped + raw[pos + 1:])
        else:
            raise ExecError(f"unknown corruption mode {mode!r}")
        damaged.append((path, mode))
    return damaged


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------
def run_chaos(specs: Sequence[ScenarioSpec], plan: ChaosPlan,
              cache_root: Union[str, Path], jobs: int = 2,
              corrupt: int = 1, supervisor=None, progress=None,
              obs=None) -> dict:
    """Baseline → chaos → corruption; assert identity; report.

    1. A fault-free serial sweep establishes the baseline results.
    2. A parallel sweep runs under ``plan`` (kills/hangs/slowdowns) with
       a fresh cache; its results must be bitwise-identical.
    3. ``corrupt`` warm-cache entries are damaged; a warm sweep must
       quarantine them, re-execute, and again match bitwise.

    Any mismatch raises :class:`ExecError`; an attributed
    :class:`TaskFailure` from an exhausted retry budget propagates as-is
    (that *is* the structured report for unsurvivable plans).
    """
    from .cache import ResultCache
    from .pool import run_specs
    from .supervisor import SupervisorPolicy

    plan.validate()
    specs = list(specs)
    cache_root = Path(cache_root)
    supervisor = supervisor or SupervisorPolicy()

    baseline = run_specs(specs, jobs=1)
    expected = [r.to_json() for r in baseline.results]

    plan_path = cache_root.parent / "chaos_plan.json"
    cache_root.parent.mkdir(parents=True, exist_ok=True)
    plan.write(plan_path)
    old = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = str(plan_path)
    try:
        chaotic = run_specs(specs, jobs=jobs,
                            cache=ResultCache(root=cache_root),
                            supervisor=supervisor, progress=progress, obs=obs)
    finally:
        if old is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = old
    got = [r.to_json() for r in chaotic.results]
    if got != expected:
        raise ExecError("chaos sweep diverged from the fault-free baseline")

    damaged = corrupt_cache_entries(cache_root, seed=plan.seed, count=corrupt)
    warm_cache = ResultCache(root=cache_root)
    warm = run_specs(specs, jobs=jobs, cache=warm_cache,
                     supervisor=supervisor, progress=progress, obs=obs)
    if [r.to_json() for r in warm.results] != expected:
        raise ExecError("post-corruption sweep diverged from the baseline")

    quarantine = cache_root / "quarantine"
    return {
        "schema": "repro-chaos-report/1",
        "plan": plan.to_dict(),
        "scenarios": len(specs),
        "jobs": jobs,
        "identical": True,
        "chaos": {
            "executed": chaotic.executed,
            "retried": chaotic.retried,
            "degraded": chaotic.degraded,
            "failure_counts": dict(chaotic.failure_counts),
            "wall_seconds": chaotic.wall_seconds,
        },
        "corruption": {
            "damaged": [{"path": str(p), "mode": m} for p, m in damaged],
            "quarantined": warm_cache.stats.quarantined,
            "re_executed": warm.executed,
            "cache_hits": warm.cache_hits,
            "quarantine_dir": str(quarantine),
            "quarantine_files": sorted(
                p.name for p in quarantine.glob("*")
            ) if quarantine.is_dir() else [],
        },
    }
