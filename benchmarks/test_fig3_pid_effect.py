"""Figure 3 — the effect of the leaving process id on data re-distribution.

The analytic model reproduces the figure's numbers exactly: with block
partitioning and the shift reassignment, a leave of end-process 7 moves
1/2 of the data space, a leave of middle-process 3 moves 2/7 ≈ 30 %.

The simulation side measures the actual post-leave re-distribution
traffic of a calibrated Jacobi (the pages re-fetched because their block
moved to a different node) for end vs middle leavers, plus the swap-last
strategy ablation §7 hints at.
"""

from fractions import Fraction

import pytest

from repro.apps import Jacobi
from repro.bench import FIGURE3_MOVED, format_table
from repro.bench.harness import run_experiment
from repro.core import CompactShift, SwapLast, moved_fraction


class TestAnalytic:
    def test_end_leave_moves_half(self):
        assert moved_fraction(8, [7]) == Fraction(1, 2)
        assert float(moved_fraction(8, [7])) == FIGURE3_MOVED["end"]

    def test_middle_leave_moves_two_sevenths(self):
        got = moved_fraction(8, [3])
        assert got == Fraction(2, 7)
        assert abs(float(got) - FIGURE3_MOVED["middle"]) < 0.02

    def test_middle_always_moves_less_than_end(self):
        for n in range(4, 17):
            assert moved_fraction(n, [n // 2]) < moved_fraction(n, [n - 1])

    def test_swap_last_ablation(self):
        """§7: 'better process id reassignment strategies offer room for
        improvement' — swap-last relocates the whole end block into the
        hole, moving *more* data for a middle leave than the shift."""
        shift = moved_fraction(8, [3], CompactShift())
        swap = moved_fraction(8, [3], SwapLast())
        assert swap > shift


def _leave_run(leaver_pid, strategy):
    def install(rt):
        node = rt.team.node_of(leaver_pid)
        rt.sim.schedule(0.05, lambda: rt.submit_leave(node, grace=60.0))

    return run_experiment(
        lambda: Jacobi(704, 24),  # 8 rows/page: aligned blocks at 8 procs
        nprocs=8,
        adaptive=True,
        events=install,
        runtime_kwargs={"strategy": strategy},
    )


@pytest.fixture(scope="module")
def leave_runs():
    return {
        ("end", "shift"): _leave_run(7, CompactShift()),
        ("middle", "shift"): _leave_run(3, CompactShift()),
        ("middle", "swap"): _leave_run(3, SwapLast()),
    }


def _redistribution_bytes(res):
    """(whole-run traffic, adaptation-window traffic, max link bytes).

    The three scenarios run the identical program and leave at the same
    time; whole-run traffic differences therefore isolate the lazy
    re-distribution that follows the re-partitioning."""
    rec = res.adapt_records[0]
    return res.traffic.bytes, rec.traffic_bytes, rec.max_link_bytes


def test_fig3_report(leave_runs, report):
    rows = []
    for (leaver, strategy), res in leave_runs.items():
        total, adapt_traffic, max_link = _redistribution_bytes(res)
        analytic = {
            ("end", "shift"): float(moved_fraction(8, [7], CompactShift())),
            ("middle", "shift"): float(moved_fraction(8, [3], CompactShift())),
            ("middle", "swap"): float(moved_fraction(8, [3], SwapLast())),
        }[(leaver, strategy)]
        rows.append(
            [leaver, strategy, f"{analytic:.3f}", res.adaptations,
             total, adapt_traffic, max_link, f"{res.runtime_seconds:.3f}"]
        )
    report(
        "fig3_pid_effect",
        format_table(
            ["leaver", "strategy", "analytic moved frac", "adapts",
             "run traffic(B)", "adapt traffic(B)", "max link(B)", "runtime(s)"],
            rows,
            title="Figure 3: leaving-pid effect on data re-distribution (Jacobi, 8->7)",
        ),
    )


def test_all_leaves_complete_correctly(leave_runs):
    for key, res in leave_runs.items():
        assert res.adaptations == 1, key
        assert res.adapt_records[0].nprocs_after == 7, key


def test_end_leave_redistributes_more_than_middle(leave_runs):
    """Figure 3's headline: the end leave moves up to 50% of the data
    space, the middle leave only ~30% — identical programs, so whole-run
    traffic isolates the difference."""
    end_total, _, _ = _redistribution_bytes(leave_runs[("end", "shift")])
    mid_total, _, _ = _redistribution_bytes(leave_runs[("middle", "shift")])
    assert end_total > mid_total
