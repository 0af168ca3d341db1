"""The paper's adaptation-cost measurement methodology (§5.3, §5.4).

"The average adaptation delay is calculated by comparing the measured
runtime for the adaptive run with the computed time of a non-adaptive run
for the same average number of nodes.  Since the average number of nodes
is always an integer in the non-adaptive case, we interpolate the results
of the non-adaptive executions to obtain the reference execution time."

Interpolation is done in *work rate* (1/time), because runtime of a
compute-bound run scales ~1/nprocs — interpolating raw times between node
counts would systematically overestimate the reference.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .harness import ExperimentResult


def average_nprocs(result: ExperimentResult, start_nprocs: int) -> float:
    """Time-weighted mean team size over an adaptive run."""
    total = result.runtime_seconds
    if total <= 0:
        return float(start_nprocs)
    spans: List[Tuple[float, int]] = []
    t_prev = 0.0
    n_prev = start_nprocs
    for record in result.adapt_records:
        spans.append((record.time - t_prev, n_prev))
        t_prev = record.time
        n_prev = record.nprocs_after
    spans.append((total - t_prev, n_prev))
    weighted = sum(max(0.0, dt) * n for dt, n in spans)
    return weighted / total


def interpolated_reference(times: Dict[int, float], avg_nprocs: float) -> float:
    """Non-adaptive runtime interpolated at a fractional node count."""
    if not times:
        raise ValueError("need at least one non-adaptive reference time")
    counts = sorted(times)
    if avg_nprocs <= counts[0]:
        return times[counts[0]]
    if avg_nprocs >= counts[-1]:
        return times[counts[-1]]
    lo = max(c for c in counts if c <= avg_nprocs)
    hi = min(c for c in counts if c >= avg_nprocs)
    if lo == hi:
        return times[lo]
    # interpolate linearly in work rate (1/time)
    w = (avg_nprocs - lo) / (hi - lo)
    rate = (1.0 - w) / times[lo] + w / times[hi]
    return 1.0 / rate


def adaptation_delay(
    adaptive: ExperimentResult,
    reference_times: Dict[int, float],
    start_nprocs: int,
) -> Tuple[float, float]:
    """(average seconds per adaptation, total delay) — the paper's metric."""
    if adaptive.adaptations == 0:
        return 0.0, 0.0
    avg_n = average_nprocs(adaptive, start_nprocs)
    reference = interpolated_reference(reference_times, avg_n)
    total_delay = adaptive.runtime_seconds - reference
    return total_delay / adaptive.adaptations, total_delay
