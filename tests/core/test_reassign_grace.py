"""Tests for reassignment strategies, Figure 3's analytic model, grace periods."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.config import SystemConfig
from repro.core import CompactShift, SwapLast, moved_fraction
from repro.errors import AdaptationError, ConfigurationError
from repro.faults import FaultInjector, parse_plan

from ..helpers import build_adaptive


class TestCompactShift:
    def test_end_leave_identity(self):
        assert CompactShift().reassign(range(4), [3]) == {0: 0, 1: 1, 2: 2}

    def test_middle_leave_shifts(self):
        assert CompactShift().reassign(range(5), [2]) == {0: 0, 1: 1, 3: 2, 4: 3}

    def test_multiple_leaves(self):
        assert CompactShift().reassign(range(6), [1, 4]) == {0: 0, 2: 1, 3: 2, 5: 3}

    def test_master_cannot_leave(self):
        with pytest.raises(AdaptationError):
            CompactShift().reassign(range(4), [0])

    def test_cannot_remove_everyone(self):
        with pytest.raises(AdaptationError):
            CompactShift().reassign(range(3), [1, 2, 0])

    def test_unknown_pid_rejected(self):
        with pytest.raises(AdaptationError):
            CompactShift().reassign(range(3), [7])

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(1, n - 1), min_size=0, max_size=n - 1),
            )
        )
    )
    def test_always_dense_and_order_preserving(self, case):
        n, leaving = case
        result = CompactShift().reassign(range(n), sorted(leaving))
        assert sorted(result.values()) == list(range(n - len(leaving)))
        survivors = sorted(result)
        assert [result[p] for p in survivors] == sorted(result.values())


class TestSwapLast:
    def test_end_leave_identity(self):
        assert SwapLast().reassign(range(4), [3]) == {0: 0, 1: 1, 2: 2}

    def test_middle_leave_moves_only_last(self):
        assert SwapLast().reassign(range(8), [3]) == {
            0: 0, 1: 1, 2: 2, 4: 4, 5: 5, 6: 6, 7: 3,
        }

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(st.integers(1, n - 1), min_size=0, max_size=n - 1),
            )
        )
    )
    def test_always_dense(self, case):
        n, leaving = case
        result = SwapLast().reassign(range(n), sorted(leaving))
        assert sorted(result.values()) == list(range(n - len(leaving)))

    @given(
        st.integers(3, 12).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n - 2))
        )
    )
    def test_moves_at_most_one_pid(self, case):
        n, leaver = case
        result = SwapLast().reassign(range(n), [leaver])
        moved = [p for p, new in result.items() if p != new]
        assert len(moved) <= 1


class TestFigure3:
    """The analytic data-movement numbers printed under Figure 3."""

    def test_end_node_moves_half(self):
        assert moved_fraction(8, [7]) == Fraction(1, 2)

    def test_middle_node_moves_about_30_percent(self):
        assert moved_fraction(8, [3]) == Fraction(2, 7)
        assert abs(float(moved_fraction(8, [3])) - 0.30) < 0.02

    def test_node4_same_as_node3(self):
        # both "middle" choices of Table 2 move the same fraction
        assert moved_fraction(8, [4]) == Fraction(2, 7)

    def test_middle_leave_cheaper_than_end_leave_for_all_sizes(self):
        for n in range(3, 16):
            mid = moved_fraction(n, [n // 2])
            end = moved_fraction(n, [n - 1])
            assert mid < end

    def test_swap_last_changes_the_picture(self):
        # swapping the last pid into the hole relocates a whole block
        assert moved_fraction(8, [3], SwapLast()) > moved_fraction(8, [3], CompactShift())


class TestGracePolicy:
    """A leave's grace comes from its event, else ``SystemConfig.grace_period``."""

    def _leaves(self, plan, cfg=None):
        sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=0, cfg=cfg)
        FaultInjector(rt, parse_plan(plan)).install()
        sim.run(until=0.1)
        return {req.node_id: req for req in rt.queue.leaves}

    def test_default(self):
        leaves = self._leaves("0.01 leave 2", SystemConfig(grace_period=5.0))
        assert leaves[2].grace == 5.0
        assert leaves[2].deadline == pytest.approx(0.01 + 5.0)

    def test_per_node_override(self):
        """A plan grace overrides the default for that leave only."""
        leaves = self._leaves("0.01 leave 2 1.0\n0.02 leave 3")
        assert leaves[2].grace == 1.0
        assert leaves[2].deadline == pytest.approx(0.01 + 1.0)
        assert leaves[3].grace == SystemConfig().grace_period

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(grace_period=-1.0).validate()
