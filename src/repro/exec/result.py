"""Deterministic per-scenario results with a canonical JSON form.

:class:`ScenarioResult` is what the engine hands back for every spec: the
*simulated* outputs only — runtimes, traffic, adaptation/recovery
accounting, verification — never wall-clock quantities, which vary run to
run and live in :class:`~repro.exec.pool.TaskOutcome` instead.  Because
every field is deterministic given the spec, the canonical JSON of a
result is bitwise-identical whether the scenario ran serially, in a
worker process, or came out of the cache; the engine's merge step and the
e2e identity tests rely on exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Dict, List, Optional

#: Result-serialization schema (cache entries embed it).
RESULT_SCHEMA = "repro-scenario-result/1"


def canonical_checksum(result_dict: Dict[str, Any]) -> str:
    """SHA-256 over a result dict's canonical JSON form.

    Defined here, next to the canonical serialization, so the integrity
    checksum stored in cache entries and the one recomputed on read are
    by construction the same function of the same bytes.
    """
    payload = json.dumps(result_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ScenarioResult:
    """Everything deterministic one scenario run produces."""

    app_name: str
    nprocs: int
    adaptive: bool
    runtime_seconds: float
    #: Simulator events executed (the events/second numerator).
    events: int
    forks: int
    adaptations: int
    messages: int = 0
    bytes: int = 0
    pages: int = 0
    diffs: int = 0
    dropped: int = 0
    retransmissions: int = 0
    heartbeats_sent: int = 0
    heartbeat_misses: int = 0
    false_suspicions: int = 0
    checkpoints_taken: int = 0
    #: One dict per :class:`~repro.core.recovery.RecoveryRecord`.
    recoveries: List[Dict[str, Any]] = field(default_factory=list)
    #: One dict per adaptation record (time, joins, leaves, team sizes).
    adapt_records: List[Dict[str, Any]] = field(default_factory=list)
    #: Materialized-mode verification vs the sequential reference
    #: (None for traced runs).
    verified: Optional[bool] = None

    # -- harness compatibility --------------------------------------------
    @property
    def megabytes(self) -> float:
        return self.bytes / 1e6

    @property
    def traffic(self) -> "ScenarioResult":
        """Self-view so drivers written against
        :class:`~repro.bench.harness.ExperimentResult` (``res.traffic.pages``
        etc.) read a ScenarioResult unchanged."""
        return self

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        d = asdict(self)
        d["schema"] = RESULT_SCHEMA
        return d

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def checksum(self) -> str:
        """Content checksum of the canonical form (cache integrity)."""
        return canonical_checksum(self.to_dict())

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ScenarioResult":
        d = dict(d)
        d.pop("schema", None)
        return cls(**d)

    @classmethod
    def from_experiment(cls, res, events: int = 0) -> "ScenarioResult":
        """Convert a live :class:`~repro.bench.harness.ExperimentResult`."""
        from ..errors import ReproError

        verified = None
        if getattr(res.app, "final", None):
            try:
                from .spec import VERIFY_ATOL, VERIFY_RTOL

                verified = res.app.verify(rtol=VERIFY_RTOL, atol=VERIFY_ATOL)
            except ReproError:
                verified = None
        runtime, traffic = res.runtime, res.traffic
        detector = runtime.detector
        return cls(
            app_name=res.app_name,
            nprocs=res.nprocs,
            adaptive=res.adaptive,
            runtime_seconds=res.runtime_seconds,
            events=events,
            forks=res.forks,
            adaptations=res.adaptations,
            messages=traffic.messages,
            bytes=traffic.bytes,
            pages=traffic.pages,
            diffs=traffic.diffs,
            dropped=traffic.dropped,
            retransmissions=traffic.retransmissions,
            heartbeats_sent=detector.heartbeats_sent if detector else 0,
            heartbeat_misses=detector.heartbeat_misses if detector else 0,
            false_suspicions=detector.false_suspicions if detector else 0,
            checkpoints_taken=len(runtime.ckpt_mgr.checkpoints),
            recoveries=[_record_dict(r) for r in res.recoveries],
            adapt_records=[_record_dict(r) for r in res.adapt_records],
            verified=verified,
        )


def _record_dict(rec) -> Dict[str, Any]:
    """A record (dataclass, or the traced runtime's plain tuples) as a
    JSON-friendly dict."""
    if not is_dataclass(rec):
        return {"record": list(rec)}
    out = {}
    for k, v in asdict(rec).items():
        if isinstance(v, tuple):
            v = list(v)
        out[k] = v
    return out
