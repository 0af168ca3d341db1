"""Unified observability: spans, counters, instants, cost breakdown,
exporters.

The one instrumentation surface for the whole repro.  See
``docs/OBSERVABILITY.md`` for the span-name → paper-cost-term mapping
and ``repro report --help`` for the CLI entry point.
"""

from .breakdown import ADAPT_PHASES, RECOVERY_PHASES, CostBreakdown, PhaseCost
from .core import (
    NULL_OBS,
    TRACK_ADAPT,
    TRACK_MASTER,
    TRACK_NETWORK,
    Counter,
    Instant,
    NullRegistry,
    ObsConfig,
    Registry,
    Span,
)
from .export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    metrics_dict,
    pool_trace,
    pool_utilization,
    write_chrome_trace,
    write_metrics,
    write_pool_trace,
)
from .schema import (
    SchemaError,
    validate_metrics,
    validate_metrics_file,
    validate_trace,
    validate_trace_file,
)

__all__ = [
    "ADAPT_PHASES",
    "RECOVERY_PHASES",
    "CostBreakdown",
    "PhaseCost",
    "NULL_OBS",
    "TRACK_ADAPT",
    "TRACK_MASTER",
    "TRACK_NETWORK",
    "Counter",
    "Instant",
    "NullRegistry",
    "ObsConfig",
    "Registry",
    "Span",
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "chrome_trace",
    "metrics_dict",
    "pool_trace",
    "pool_utilization",
    "write_chrome_trace",
    "write_metrics",
    "write_pool_trace",
    "SchemaError",
    "validate_metrics",
    "validate_metrics_file",
    "validate_trace",
    "validate_trace_file",
]
