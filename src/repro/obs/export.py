"""Exporters: Chrome/Perfetto ``trace.json`` and flat ``metrics.json``.

The Chrome trace uses the JSON-object format ``chrome://tracing`` and
Perfetto load directly: one process (pid 0 = the simulated system), one
thread per track — every simulated DSM process gets its own track (``P0``
is the master), plus ``adapt``, ``network`` and ``master`` tracks for the
runtime-level spans.  Timestamps are *simulated* microseconds.

:func:`pool_trace` renders the execution engine's worker timeline the
same way (one track per worker — the calling thread is ``worker0`` —
in wall-clock microseconds), so a
``repro sweep --jobs N --timeline pool.json`` session can be inspected
with the identical tooling.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .breakdown import CostBreakdown
from .core import Registry

#: Schema identifiers embedded in the exported files.
TRACE_SCHEMA = "repro-trace/1"
METRICS_SCHEMA = "repro-metrics/1"


def _sec_to_us(seconds: float) -> float:
    return seconds * 1.0e6


def chrome_trace(reg: Registry, meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """The registry as a Chrome/Perfetto trace-object dict."""
    tracks = reg.tracks()
    tids = {track: tid for tid, track in enumerate(tracks)}
    events: List[Dict[str, Any]] = []
    for track in tracks:
        events.append({
            "ph": "M",
            "pid": 0,
            "tid": tids[track],
            "name": "thread_name",
            "args": {"name": track},
        })
    for span in reg.spans:
        event: Dict[str, Any] = {
            "ph": "X",
            "pid": 0,
            "tid": tids[span.track],
            "name": span.name,
            "cat": span.category or "sim",
            "ts": _sec_to_us(span.start),
            "dur": _sec_to_us(span.duration),
        }
        if span.args:
            event["args"] = dict(span.args)
        events.append(event)
    end_ts = _sec_to_us(max((s.end for s in reg.spans), default=0.0))
    for name in sorted(reg.counters):
        events.append({
            "ph": "C",
            "pid": 0,
            "tid": 0,
            "name": name,
            "ts": end_ts,
            "args": {"value": reg.counters[name].value},
        })
    other = {"schema": TRACE_SCHEMA}
    if meta:
        other.update(meta)
    return {
        "displayTimeUnit": "ms",
        "otherData": other,
        "traceEvents": events,
    }


def write_chrome_trace(
    reg: Registry, path: str, meta: Optional[Dict[str, Any]] = None
) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(reg, meta=meta), fh, indent=1, sort_keys=True)
        fh.write("\n")


def metrics_dict(
    reg: Registry,
    breakdown: Optional[CostBreakdown] = None,
    result: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The flat metrics payload: counters, span totals, cost breakdown."""
    breakdown = breakdown if breakdown is not None else CostBreakdown.from_registry(reg)
    span_totals: Dict[str, Dict[str, float]] = {}
    for span in reg.spans:
        entry = span_totals.setdefault(span.name, {"seconds": 0.0, "count": 0})
        entry["seconds"] += span.duration
        entry["count"] += 1
    payload: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "counters": {k: c.value for k, c in sorted(reg.counters.items())},
        "spans": {k: span_totals[k] for k in sorted(span_totals)},
        "breakdown": breakdown.as_dict(),
    }
    if result is not None:
        payload["result"] = result
    return payload


def write_metrics(
    reg: Registry,
    path: str,
    breakdown: Optional[CostBreakdown] = None,
    result: Optional[Dict[str, Any]] = None,
) -> None:
    with open(path, "w") as fh:
        json.dump(metrics_dict(reg, breakdown=breakdown, result=result),
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# execution-engine pool timeline (wall clock, one track per worker)
# ---------------------------------------------------------------------------
def pool_trace(outcome) -> Dict[str, Any]:
    """A :class:`~repro.exec.pool.SweepOutcome` as a Chrome trace.

    One track per worker in registration order; ``worker0`` is the
    calling thread (the whole sweep under ``jobs=1``, the first executor
    of a ``jobs >= 2`` one).  Cache hits (``worker == -1``) are skipped —
    they take no pool time.
    """
    reg = Registry(per_process=False)
    for task in outcome.outcomes:
        if task.worker < 0:
            continue
        reg.span(
            f"worker{task.worker}",
            task.spec.display_name,
            task.started_at,
            task.ended_at,
            category="exec",
            digest=task.spec.config_digest()[:12],
            attempts=task.attempts,
        )
    return chrome_trace(reg, meta={
        "jobs": outcome.jobs,
        "executed": outcome.executed,
        "cache_hits": outcome.cache_hits,
        "wall_seconds": outcome.wall_seconds,
        "utilization": pool_utilization(outcome),
    })


def pool_utilization(outcome) -> float:
    """Busy fraction of the pool: worker-busy seconds over jobs × wall."""
    busy = sum(
        task.ended_at - task.started_at
        for task in outcome.outcomes
        if task.worker >= 0
    )
    denom = outcome.jobs * outcome.wall_seconds
    return busy / denom if denom > 0 else 0.0


def write_pool_trace(outcome, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(pool_trace(outcome), fh, indent=1, sort_keys=True)
        fh.write("\n")
