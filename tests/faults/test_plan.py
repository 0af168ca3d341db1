"""Fault-plan parsing, rendering, and injector scheduling."""

import pytest

from repro.errors import FaultError
from repro.faults import (
    FaultAction,
    FaultInjector,
    FaultPlan,
    dump_plan,
    parse_plan,
    parse_plan_file,
)

from ..helpers import build_adaptive


PLAN_TEXT = """
# a partition, a crash, and some link noise
0.5 cut 0 2
0.9 crash 1       # fail-stop
1.2 heal 0 2
0.1 duplicate 0.25
0.1 delay 0.1 0.002
2.0 degrade 3 0.001
3.0 restore 3
"""


class TestParsing:
    def test_parse_sorts_and_types(self):
        plan = parse_plan(PLAN_TEXT)
        assert [a.action for a in plan.actions] == [
            "delay", "duplicate", "cut", "crash", "heal", "degrade", "restore",
        ]
        assert plan.crash_times == [(0.9, 1)]
        assert plan.actions[2].args == (0.0, 2.0)

    def test_round_trip(self):
        plan = parse_plan(PLAN_TEXT)
        assert parse_plan(dump_plan(plan)) == plan

    def test_parse_file(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text(PLAN_TEXT)
        assert parse_plan_file(path) == parse_plan(PLAN_TEXT)

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultError, match="line 1"):
            parse_plan("0.5 explode 3")

    def test_wrong_arity_rejected(self):
        with pytest.raises(FaultError, match="takes 2"):
            parse_plan("0.5 cut 3")

    def test_bad_number_rejected(self):
        with pytest.raises(FaultError, match="line 1"):
            parse_plan("0.5 crash abc")

    def test_negative_time_rejected(self):
        with pytest.raises(FaultError, match="negative"):
            parse_plan("-1 crash 0")

    def test_needs_reliability(self):
        def latches(text):
            sim, rt, pool = build_adaptive(nprocs=2)
            FaultInjector(rt, parse_plan(text)).install()
            return rt.switch.faults is not None and rt.switch.faults.unreliable

        assert latches("0.5 cut 0 1")
        assert latches("0.5 duplicate 0.1")
        assert latches("0.5 delay 0.1 0.001")
        assert not latches("0.5 crash 1\n1.0 degrade 2 0.001\n1.5 leave 1 0\n2.0 join 1")


class TestInjector:
    def test_install_schedules_and_fires(self):
        sim, rt, pool = build_adaptive(nprocs=2)
        inj = FaultInjector(rt, parse_plan("0.1 degrade 1 0.0005\n0.2 restore 1"))
        inj.install()
        sim.run(until=0.5)
        assert [a.action for a in inj.fired] == ["degrade", "restore"]
        assert rt.switch.faults is not None
        assert rt.switch.faults.extra_latency(0, 1) == 0.0

    def test_same_time_actions_fire_in_the_order_given(self):
        sim, rt, pool = build_adaptive(nprocs=2)
        actions = [FaultAction(0.1, "restore", (1,)), FaultAction(0.1, "degrade", (1, 0.001))]
        inj = FaultInjector(rt, actions)
        inj.install()
        sim.run(until=0.5)
        assert inj.fired == actions
        assert rt.switch.faults.extra_latency(0, 1) == 0.001

    def test_double_install_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2)
        inj = FaultInjector(rt, FaultPlan([FaultAction(0.1, "crash", (1.0,))]))
        inj.install()
        with pytest.raises(FaultError):
            inj.install()

    def test_lossy_plan_latches_unreliable_at_install(self):
        sim, rt, pool = build_adaptive(nprocs=2)
        FaultInjector(rt, parse_plan("5.0 duplicate 0.2")).install()
        # gate latched immediately, long before the action fires
        assert rt.switch.faults.unreliable

    def test_crash_only_plan_does_not_gate_the_wire(self):
        sim, rt, pool = build_adaptive(nprocs=2)
        FaultInjector(rt, parse_plan("5.0 crash 1")).install()
        assert rt.switch.faults is None or not rt.switch.faults.unreliable
