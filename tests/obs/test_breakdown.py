"""The §5 cost decomposition: phases must tile the harness adapt time."""

import pytest

from repro.api import AdaptEvent, ObsConfig, run, spec_from_preset
from repro.obs import ADAPT_PHASES, RECOVERY_PHASES, CostBreakdown


@pytest.fixture(scope="module")
def leave_report():
    spec = spec_from_preset(
        "tiny", "jacobi", 8, adaptive=True,
        extra_nodes=2, events=(AdaptEvent("leave", 0.03, 3),),
        label="bd-leave",
    )
    return run(spec, obs=ObsConfig())


@pytest.fixture(scope="module")
def crash_report():
    spec = spec_from_preset(
        "tiny", "jacobi", 4, adaptive=True,
        extra_nodes=1, events=(AdaptEvent("crash", 0.03),),
        checkpoint_interval=0.02, failure_detection=True,
        label="bd-crash",
    )
    return run(spec, obs=ObsConfig())


class TestAdaptationBreakdown:
    def test_phases_sum_to_harness_adapt_time(self, leave_report):
        bd = leave_report.cost_breakdown
        harness = sum(r.duration for r in leave_report.experiment.adapt_records)
        assert bd.adaptation_points >= 1
        assert bd.adapt_phase_sum() == pytest.approx(harness, abs=1e-12)
        assert bd.adaptation_seconds == pytest.approx(harness, abs=1e-12)
        assert bd.consistent()

    def test_every_phase_present(self, leave_report):
        bd = leave_report.cost_breakdown
        assert set(ADAPT_PHASES) <= set(bd.phases)
        for phase in ADAPT_PHASES:
            assert bd.phases[phase].seconds >= 0.0

    def test_gc_dominates_a_leave(self, leave_report):
        # The paper's headline: adaptation cost is GC + repartition, not
        # page movement — a graceful leave moves no exclusive pages.
        bd = leave_report.cost_breakdown
        assert bd.phases["adapt.gc"].seconds > 0.0
        assert bd.phases["adapt.repartition"].seconds > 0.0
        assert bd.phases["adapt.migration"].seconds == 0.0

    def test_rows_render_total(self, leave_report):
        rows = leave_report.cost_breakdown.rows()
        assert rows[-1][0].startswith("total")
        shares = [r[2] for r in rows[:-1]]
        assert any(s.endswith("%") for s in shares)

    def test_as_dict_round_trip_fields(self, leave_report):
        d = leave_report.cost_breakdown.as_dict()
        assert d["adaptation_points"] >= 1
        assert set(d["phases"]) >= set(ADAPT_PHASES)
        assert d["counters"]["adapt.events"] >= 1

    def test_counters_recorded(self, leave_report):
        reg = leave_report.registry
        assert reg.counter_value("adapt.events") >= 1
        assert reg.counter_value("adapt.traffic_bytes") > 0
        assert reg.counter_value("gc.rounds") >= 1

    def test_join_ships_page_map(self):
        # A join needs its 0.6-0.8 s spawn to land inside the run, which
        # the tiny preset is too short for; drive a long synthetic kernel
        # through the test harness instead.
        from repro.dsm import SharedArray, TmkProgram
        from repro.obs import Registry

        from ..helpers import build_adaptive

        reg = Registry()
        sim, rt, pool = build_adaptive(
            nprocs=3, extra_nodes=1, materialized=False, obs=reg)
        seg = rt.malloc("grid", shape=(64, 17), dtype="float64")
        arr = SharedArray(seg)

        def step(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, reads=arr.rows(lo, hi),
                                  writes=arr.rows(lo, hi))
            yield from ctx.compute(0.05)

        def driver(api):
            for _ in range(40):
                yield from api.fork_join("step")

        sim.schedule(0.01, lambda: rt.submit_join(3))
        res = rt.run(TmkProgram({"step": step}, driver, "join-obs"))
        assert res.adaptations == 1
        assert reg.counter_value("adapt.page_map_messages") >= 1
        assert reg.counter_value("adapt.page_map_bytes") > 0


class TestRecoveryBreakdown:
    def test_recovery_phases_tile_total(self, crash_report):
        bd = crash_report.cost_breakdown
        assert bd.recovery_seconds > 0.0
        tiled = sum(bd.phases[p].seconds for p in RECOVERY_PHASES
                    if p in bd.phases)
        assert tiled == pytest.approx(bd.recovery_seconds, abs=1e-12)

    def test_from_registry_direct(self, crash_report):
        bd = CostBreakdown.from_registry(crash_report.registry)
        assert bd.recovery_seconds == pytest.approx(
            crash_report.cost_breakdown.recovery_seconds)


class TestUnobservedRuns:
    def test_breakdown_absent_without_obs(self):
        spec = spec_from_preset("tiny", "jacobi", 2, label="bd-off")
        assert run(spec).cost_breakdown is None
