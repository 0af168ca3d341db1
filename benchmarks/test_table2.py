"""Table 2 — average cost of repeated adaptations between n and n-1
processes, for n = 8 and n = 6, with the leaver at the *end* (highest
pid) or in the *middle* of the pid space.

Published claims reproduced (at scaled workloads):

1. adaptation costs are finite and small relative to the run;
2. **adaptation with 8 processes is always cheaper than with 6** — the
   leaver's partition shrinks with the team and its drain spreads over
   more links (§5.4);
3. costs are reported per the paper's methodology: adaptive runtime vs
   the interpolated non-adaptive reference at the run's average node
   count, divided by the number of adaptations.
"""

from __future__ import annotations

import pytest

from repro.apps import APP_NAMES, FFT3D, Gauss, Jacobi, NBF
from repro.bench import (
    TABLE2,
    adaptation_delay,
    format_table,
    nonadaptive_times,
)
from repro.bench.harness import run_experiment
from repro.cluster import PeriodicAlternator

#: Longer-running variants so several adaptations land inside one run.
FACTORIES = {
    "jacobi": lambda: Jacobi(500, 150),
    "gauss": lambda: Gauss(512, 500),
    "fft3d": lambda: FFT3D(32, 16, 16, 60),
    "nbf": lambda: NBF(8192, 16, 100),
}

CONFIGS = [(n, leaver) for n in (8, 6) for leaver in ("end", "middle")]


def _alternating_run(app_name: str, nprocs: int, leaver: str):
    def install(runtime):
        PeriodicAlternator(
            runtime,
            selector=leaver,
            gap=0.3,
            max_events=4,
            grace=1e9,  # always normal leaves, as in the paper's Table 2
            start_delay=0.2,
        ).install()

    return run_experiment(
        FACTORIES[app_name], nprocs=nprocs, adaptive=True, events=install
    )


@pytest.fixture(scope="module")
def table2_grid():
    grid = {}
    refs = {}
    for app in APP_NAMES:
        refs[app] = nonadaptive_times(FACTORIES[app], [5, 6, 7, 8])
        for nprocs, leaver in CONFIGS:
            grid[(app, nprocs, leaver)] = _alternating_run(app, nprocs, leaver)
    return grid, refs


def _avg_cost(result, refs, nprocs):
    per_adapt, _total = adaptation_delay(result, refs, start_nprocs=nprocs)
    return per_adapt


def test_table2_report(table2_grid, report):
    grid, refs = table2_grid
    rows = []
    for leaver in ("end", "middle"):
        for app in APP_NAMES:
            row = [leaver, app]
            for nprocs in (8, 6):
                res = grid[(app, nprocs, leaver)]
                cost = _avg_cost(res, refs[app], nprocs)
                direct = (
                    sum(r.duration for r in res.adapt_records) / len(res.adapt_records)
                    if res.adapt_records
                    else 0.0
                )
                paper = TABLE2[(app, leaver, nprocs)].seconds
                row += [res.adaptations, cost, direct, paper]
            rows.append(row)
    report(
        "table2",
        format_table(
            [
                "leaver", "app",
                "n8 events", "n8 delay/adapt(s)", "n8 direct(s)", "n8 paper(s)",
                "n6 events", "n6 delay/adapt(s)", "n6 direct(s)", "n6 paper(s)",
            ],
            rows,
            title="Table 2 (scaled workloads): average cost per adaptation",
        ),
    )
    assert rows


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("leaver", ["end", "middle"])
def test_adaptations_happen_and_team_recovers(table2_grid, app, leaver):
    grid, _refs = table2_grid
    for nprocs in (8, 6):
        res = grid[(app, nprocs, leaver)]
        assert res.adaptations == 4
        assert res.adapt_records[0].nprocs_before == nprocs
        # alternating leave/join returns the team to full strength
        assert res.adapt_records[-1].nprocs_after == nprocs


@pytest.mark.parametrize("app", APP_NAMES)
@pytest.mark.parametrize("leaver", ["end", "middle"])
def test_eight_procs_cheaper_than_six(table2_grid, app, leaver):
    """The paper's highlighted Table 2 result, via the direct per-record
    cost (leave-drain + GC + bookkeeping duration)."""
    grid, _refs = table2_grid
    res8 = grid[(app, 8, leaver)]
    res6 = grid[(app, 6, leaver)]
    direct8 = sum(r.duration for r in res8.adapt_records) / len(res8.adapt_records)
    direct6 = sum(r.duration for r in res6.adapt_records) / len(res6.adapt_records)
    assert direct8 < direct6, (
        f"{app}/{leaver}: adaptation at 8 procs ({direct8:.4f}s) should be "
        f"cheaper than at 6 procs ({direct6:.4f}s)"
    )


@pytest.mark.parametrize("app", APP_NAMES)
def test_adaptation_cost_small_relative_to_run(table2_grid, app):
    """Moderate adaptation rates are affordable (§5.3): the total
    adaptation overhead stays well under the run length."""
    grid, refs = table2_grid
    res = grid[(app, 8, "end")]
    _per, total_delay = adaptation_delay(res, refs[app], start_nprocs=8)
    assert total_delay < 0.5 * res.runtime_seconds
