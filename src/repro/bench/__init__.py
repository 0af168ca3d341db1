"""Benchmark harness: paper data, calibration, experiment runner,
adaptation-cost methodology, and report formatting."""

from .analysis import (
    LinkReport,
    TimeBreakdown,
    adaptation_timeline,
    breakdown_table,
    busiest_links,
    link_reports,
    link_table,
    speedup_table,
    time_breakdown,
)
from .adaptation_cost import (
    adaptation_delay,
    average_nprocs,
    interpolated_reference,
)
from .model import LeaveCostModel, MigrationCostModel, predicted_max_link_bytes
from .calibrate import calibrated_rates, expected_1node_seconds
from .harness import ExperimentResult, nonadaptive_times
from .perf import calibrate_spin
from .recovery import (
    RecoveryPoint,
    recovery_sweep,
    sweep_rows,
)
from .paper_data import (
    ADAPTATION_POINT_SPACING,
    FIGURE3_MOVED,
    MICRO,
    MIGRATION_COST,
    TABLE1,
    TABLE2,
    speedup,
)
from .reporting import format_table, ratio_note


__all__ = [
    "ADAPTATION_POINT_SPACING",
    "ExperimentResult",
    "FIGURE3_MOVED",
    "MICRO",
    "MIGRATION_COST",
    "TABLE1",
    "TABLE2",
    "LeaveCostModel",
    "LinkReport",
    "MigrationCostModel",
    "predicted_max_link_bytes",
    "TimeBreakdown",
    "adaptation_delay",
    "adaptation_timeline",
    "breakdown_table",
    "busiest_links",
    "link_reports",
    "link_table",
    "speedup_table",
    "time_breakdown",
    "average_nprocs",
    "calibrated_rates",
    "expected_1node_seconds",
    "format_table",
    "interpolated_reference",
    "nonadaptive_times",
    "calibrate_spin",
    "ratio_note",
    "speedup",
    "RecoveryPoint",
    "recovery_sweep",
    "sweep_rows",
]
