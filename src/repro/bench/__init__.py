"""Benchmark harness: paper data, experiment runner, adaptation-cost
methodology, micro-benchmarks, and report formatting."""

import importlib

#: The public names by the submodule that defines them.  Each is imported
#: on first use (PEP 562), so ``import repro.apps`` (which reads Table 1
#: from :mod:`.paper_data`) loads no harness module, and ``import
#: repro.api`` loads no ``bench`` module at all.
_EXPORTS = {
    "adaptation_cost": ("adaptation_delay", "average_nprocs",
                        "interpolated_reference"),
    "harness": ("ExperimentResult", "nonadaptive_times"),
    "model": ("LeaveCostModel", "MigrationCostModel",
              "predicted_max_link_bytes"),
    "paper_data": ("ADAPTATION_POINT_SPACING", "FIGURE3_MOVED", "MICRO",
                   "MIGRATION_COST", "SHARED_MB", "TABLE1", "TABLE2",
                   "speedup"),
    "perf": ("calibrate_spin",),
    "recovery": ("RecoveryPoint", "recovery_sweep", "sweep_rows"),
    "reporting": ("format_table", "ratio_note"),
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
