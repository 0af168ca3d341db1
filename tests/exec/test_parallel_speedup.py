"""The PR's wall-clock acceptance gates (need real cores / a warm disk).

The ``--jobs 4`` speedup needs at least 4 physical cores to mean
anything — on smaller machines (like 1-core CI sandboxes) process spawn
overhead dominates and the test auto-skips.  The warm-cache gate has no
core requirement and always runs.
"""

import os
import time

import pytest

from repro import api
from repro.exec import ResultCache, ScenarioSpec
from repro.exec.pool import run_specs

from .test_engine_e2e import small_specs

CORES = os.cpu_count() or 1


@pytest.mark.skipif(CORES < 4, reason=f"needs >= 4 cores, have {CORES}")
def test_jobs4_speedup_on_8_scenarios():
    """Acceptance: 8 scenarios with --jobs 4 run >= 2.5x faster than serial
    on a 4-core runner, with bitwise-identical merged results."""
    # Equal-cost, distinct-digest scenarios (the seed varies).
    specs = [
        ScenarioSpec(kernel="jacobi", params={"n": 280, "iterations": 16},
                     nprocs=8, calibrated=True, seed=0x5EED + k,
                     label=f"par-{k}")
        for k in range(8)
    ]
    serial = api.sweep(specs, jobs=1)
    parallel = api.sweep(specs, jobs=4)
    assert ([r.to_json() for r in serial.results]
            == [r.to_json() for r in parallel.results]), (
        "parallel results diverged from serial")
    speedup = serial.wall_seconds / parallel.wall_seconds
    assert speedup >= 2.5, (
        f"8 scenarios / 4 jobs: {speedup:.2f}x "
        f"(serial {serial.wall_seconds:.2f}s, "
        f"parallel {parallel.wall_seconds:.2f}s)"
    )


def test_warm_cache_is_10x_faster_and_runs_nothing(tmp_path):
    """Acceptance: a warm-cache rerun executes zero scenarios and beats the
    cold run by >= 10x wall clock."""
    specs = small_specs(4, n=96, iterations=6)

    t0 = time.perf_counter()
    cold = run_specs(specs, jobs=1, cache=ResultCache(root=tmp_path))
    cold_wall = time.perf_counter() - t0
    assert cold.executed == len(specs)

    t0 = time.perf_counter()
    warm = run_specs(specs, jobs=1, cache=ResultCache(root=tmp_path))
    warm_wall = time.perf_counter() - t0
    assert warm.executed == 0
    assert warm.cache_hits == len(specs)
    assert cold_wall / warm_wall >= 10.0, (
        f"warm cache only {cold_wall / warm_wall:.1f}x faster "
        f"(cold {cold_wall:.3f}s, warm {warm_wall:.3f}s)"
    )
    assert ([r.to_json() for r in cold.results]
            == [r.to_json() for r in warm.results])
