"""Availability traces are plans: parse, round-trip, replay and synthesis
of join/leave/crash scripts in the one grammar (``repro.faults.plan``)."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import synthesize_workday
from repro.errors import ConfigurationError, FaultError
from repro.faults import FaultAction, FaultInjector, FaultPlan, dump_plan, parse_plan

from ..core.test_adaptive_runtime import iterative_program
from ..helpers import build_adaptive


class TestParsing:
    def test_basic_lines(self):
        plan = parse_plan("0.5 leave 3 2.0\n1.25 join 3\n")
        assert plan.actions == [
            FaultAction(0.5, "leave", (3.0, 2.0)),
            FaultAction(1.25, "join", (3.0,)),
        ]

    def test_leave_without_grace(self):
        assert parse_plan("0.5 leave 3\n").actions == [FaultAction(0.5, "leave", (3.0,))]

    def test_comments_and_blanks(self):
        text = "# header\n\n0.1 join 2   # inline comment\n"
        assert parse_plan(text).actions == [FaultAction(0.1, "join", (2.0,))]

    def test_sorting(self):
        plan = parse_plan("2.0 join 1\n1.0 leave 1\n")
        assert [a.time for a in plan.actions] == [1.0, 2.0]

    def test_bad_action(self):
        with pytest.raises(FaultError):
            parse_plan("0.1 explode 2\n")

    def test_crash_action_parses(self):
        assert parse_plan("0.1 crash 2\n").actions == [FaultAction(0.1, "crash", (2.0,))]

    def test_crash_with_grace_rejected(self):
        with pytest.raises(FaultError, match="crash takes 1 argument"):
            parse_plan("0.1 crash 2 0.5\n")

    def test_bad_field_count(self):
        with pytest.raises(FaultError, match="join takes 1 argument"):
            parse_plan("0.1 join\n")
        with pytest.raises(FaultError, match="join takes 1 argument"):
            parse_plan("0.1 join 2 0.5\n")
        with pytest.raises(FaultError, match="leave takes 1-2 argument"):
            parse_plan("0.1 leave 2 0.5 9\n")

    def test_bad_number(self):
        with pytest.raises(FaultError):
            parse_plan("zero join 2\n")

    def test_negative_time(self):
        with pytest.raises(FaultError, match="negative"):
            parse_plan("-1 join 2\n")

    def test_roundtrip(self):
        plan = FaultPlan([
            FaultAction(0.25, "leave", (4, 3.0)),
            FaultAction(0.5, "leave", (5, 0.0)),
            FaultAction(0.75, "join", (4,)),
            FaultAction(0.9, "crash", (6,)),
        ])
        assert parse_plan(dump_plan(plan)) == plan

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 100, allow_nan=False, width=32),
                st.sampled_from(["join", "leave", "crash"]),
                st.integers(0, 31),
                st.none() | st.floats(0, 100, allow_nan=False, width=32),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, raw):
        def args(action, node, grace):
            if action == "leave" and grace is not None:
                return (node, grace)
            return (node,)

        plan = FaultPlan([FaultAction(round(t, 6), a, args(a, n, g)) for t, a, n, g in raw])
        expected = FaultPlan([
            FaultAction(float(f"{a.time:.6f}"), a.action,
                        tuple(float(f"{x:.6f}") for x in a.args))
            for a in plan.actions
        ])
        assert parse_plan(dump_plan(plan)) == expected


class TestReplay:
    def test_replay_drives_runtime(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=60, compute=0.02)
        FaultInjector(rt, parse_plan("0.05 leave 3 60.0\n0.4 join 3\n")).install()
        res = rt.run(prog)
        assert res.adaptations == 2
        kinds = [("leave" if r.leaves else "join") for r in res.adapt_log]
        assert kinds == ["leave", "join"]

    def test_replay_crash_action_fails_node(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=1,
                                       failure_detection=True)
        prog = iterative_program(rt, n_iter=40, compute=0.02)
        FaultInjector(rt, parse_plan("0.3 crash 1\n")).install()
        res = rt.run(prog)
        assert pool.node(1).crashed
        assert len(res.recoveries) == 1

    def test_adapt_actions_leave_the_wire_alone(self):
        """join/leave/crash never give the switch a fault object, whose
        mere presence routes every message through the fault branch."""
        sim, rt, pool = build_adaptive(nprocs=4)
        FaultInjector(rt, parse_plan("0.05 leave 3 0\n0.4 join 3\n0.5 crash 2")).install()
        assert rt.switch.faults is None


class TestSynthesis:
    def test_workday_shape(self):
        plan = parse_plan(dump_plan(synthesize_workday([4, 5, 6], day_length=10.0)))
        assert all(0 <= a.time <= 10.0 for a in plan.actions)
        # leave/join alternate per node
        for node in (4, 5, 6):
            seq = [a.action for a in plan.actions if a.args[0] == node]
            for a, b in zip(seq, seq[1:]):
                assert a != b

    def test_deterministic_per_seed(self):
        a = synthesize_workday([1, 2], 20.0, seed=5)
        b = synthesize_workday([1, 2], 20.0, seed=5)
        c = synthesize_workday([1, 2], 20.0, seed=6)
        assert a == b
        assert a != c

    def test_bad_day_length(self):
        with pytest.raises(ConfigurationError):
            synthesize_workday([1], 0.0)
