"""§5.3 — the cost of adaptation by migration alone.

The paper's what-if: if every leave were an urgent leave, its direct cost
is (i) creating the process on the new host (0.6–0.8 s) plus (ii) moving
the process image at ≈ 8.1 MB/s: Jacobi ≈ 6.7 s, 3D-FFT ≈ 6.13 s,
Gauss ≈ 6.9 s, NBF ≈ 7.66 s.

The model check uses the paper-size kernels (no simulation needed for the
direct cost: image = mapped shared pages + runtime overhead); an actual
simulated urgent leave at harness scale confirms the components add up
and that migration dwarfs a normal leave.
"""

import pytest

from repro.apps import KERNELS, PAPER, Jacobi
from repro.bench import MICRO, MIGRATION_COST, format_table
from repro.bench.harness import run_experiment
from repro.config import SystemConfig


def paper_scale_migration_seconds(app_name: str) -> tuple:
    """(min, max) direct migration cost for the paper-size kernel."""
    cfg = SystemConfig()
    wl = KERNELS[app_name](**PAPER[app_name])
    # a long-running process has mapped essentially the whole shared space
    import repro.dsm as dsm
    from repro.simcore import Simulator
    from repro.network import Switch
    from repro.cluster import NodePool

    sim = Simulator()
    pool = NodePool(sim, Switch(sim, cfg.network))
    rt = dsm.TmkRuntime(sim, cfg, pool.add_nodes(1), materialized=False)
    wl.allocate(rt)
    image = (
        rt.space.total_pages * cfg.dsm.page_size
        + cfg.migration.image_overhead_bytes
    )
    copy = cfg.migration.copy_time(image)
    return (
        cfg.migration.spawn_time_min + copy,
        cfg.migration.spawn_time_max + copy,
    )


def test_migration_cost_report(report):
    rows = []
    for app in ("jacobi", "fft3d", "gauss", "nbf"):
        lo, hi = paper_scale_migration_seconds(app)
        rows.append([app, lo, hi, MIGRATION_COST[app]])
    report(
        "migration_cost",
        format_table(
            ["app", "model min (s)", "model max (s)", "paper (s)"],
            rows,
            title="§5.3: direct cost of migration (spawn + image at 8.1 MB/s), paper sizes",
        ),
    )


@pytest.mark.parametrize("app", ["jacobi", "fft3d", "gauss", "nbf"])
def test_paper_scale_migration_in_range(app):
    """The model's migration cost brackets the published number within the
    uncertainty of which arrays the 1999 codes kept in shared memory."""
    lo, hi = paper_scale_migration_seconds(app)
    published = MIGRATION_COST[app]
    assert lo * 0.4 <= published <= hi * 2.6, (
        f"{app}: model range [{lo:.2f}, {hi:.2f}] vs paper {published}"
    )


def test_simulated_urgent_leave_components():
    """An actual urgent leave decomposes exactly as §5.3 describes."""
    res = run_experiment(
        lambda: Jacobi(1400, 8),
        nprocs=3,
        adaptive=True,
        events=lambda rt: rt.sim.schedule(0.5, lambda: rt.submit_leave(2, grace=0.15)),
    )
    assert len(res.migrations) == 1
    mig = res.migrations[0]
    assert MICRO.spawn_min <= mig.spawn_seconds <= MICRO.spawn_max
    assert mig.copy_seconds == pytest.approx(
        mig.image_bytes / MICRO.migration_rate, rel=0.01
    )


def test_migration_much_costlier_than_normal_leave():
    """The paper's conclusion: normal leaves (a few tens of ms of protocol
    work at this scale) beat migration (≥ 0.6 s spawn alone)."""
    normal = run_experiment(
        lambda: Jacobi(700, 30),
        nprocs=4,
        adaptive=True,
        events=lambda rt: rt.sim.schedule(0.2, lambda: rt.submit_leave(3, grace=60.0)),
    )
    urgent = run_experiment(
        lambda: Jacobi(1400, 8),
        nprocs=3,
        adaptive=True,
        events=lambda rt: rt.sim.schedule(0.5, lambda: rt.submit_leave(2, grace=0.15)),
    )
    normal_cost = normal.adapt_records[0].duration
    urgent_cost = urgent.migrations[0].total_seconds
    assert urgent_cost > 10 * normal_cost
