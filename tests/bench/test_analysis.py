"""Tests for the post-run analysis utilities."""

import pytest

from repro.apps import Jacobi
from repro.bench import (
    adaptation_timeline,
    breakdown_table,
    busiest_links,
    link_reports,
    link_table,
    speedup_table,
    time_breakdown,
)
from repro.bench.harness import run_experiment
from repro.config import PerfParams, SystemConfig


@pytest.fixture(scope="module")
def run():
    return run_experiment(lambda: Jacobi(200, 40), nprocs=4)


@pytest.fixture(scope="module")
def adaptive_run():
    return run_experiment(
        lambda: Jacobi(200, 30),
        nprocs=4,
        adaptive=True,
        events=lambda rt: rt.sim.schedule(0.05, lambda: rt.submit_leave(3, grace=60.0)),
    )


class TestTimeBreakdown:
    def test_every_process_present(self, run):
        breakdown = time_breakdown(run)
        assert [b.pid for b in breakdown] == [0, 1, 2, 3]

    def test_compute_and_stalls_recorded(self, run):
        for b in time_breakdown(run):
            assert b.compute > 0
            assert b.fault_wait > 0  # remote pages were fetched
            assert b.fault_wait < run.runtime_seconds

    def test_balanced_kernel_has_equal_compute_shares(self, run):
        computes = [b.compute for b in time_breakdown(run)]
        assert max(computes) < 1.1 * min(computes)

    def test_accounted_not_exceeding_runtime_grossly(self, run):
        for b in time_breakdown(run):
            assert b.accounted <= run.runtime_seconds * 1.5

    def test_overhead_fraction_bounds(self, run):
        for b in time_breakdown(run):
            frac = b.overhead_fraction(run.runtime_seconds)
            assert 0.0 <= frac <= 1.0

    def test_table_renders(self, run):
        text = breakdown_table(run)
        assert "pid" in text and "compute" in text
        assert "overhead" in text


class TestLinkReports:
    def test_all_links_reported(self, run):
        reports = link_reports(run)
        names = {r.name for r in reports}
        assert {"up0", "down0", "up3", "down3"} <= names

    def test_busiest_sorted(self, run):
        top = busiest_links(run, top=4)
        assert all(a.bytes >= b.bytes for a, b in zip(top, top[1:]))

    def test_utilization_in_unit_range(self, run):
        for r in link_reports(run):
            assert 0.0 <= r.utilization <= 1.0

    def test_master_links_busiest_during_leave(self, adaptive_run):
        """Leave drains concentrate on the master port (§5.4/§7)."""
        top = busiest_links(adaptive_run, top=2)
        assert any(l.name in ("down0", "up0") for l in top)

    def test_link_table_renders(self, run):
        assert "utilization" in link_table(run)

    def test_fattree_trunks_reported(self):
        """§5.4's max-per-link view covers the trunks, where a fat-tree's
        traffic concentrates: each carries a whole leaf's."""
        cfg = SystemConfig(perf=PerfParams(topology="fattree", topology_radix=2))
        fat = run_experiment(lambda: Jacobi(200, 10), nprocs=8, cfg=cfg)
        names = {r.name for r in link_reports(fat)}
        assert {f"trunk.{d}{leaf}" for d in ("up", "down") for leaf in range(4)} <= names
        assert len(names) == 16 + 8
        assert any(l.name.startswith("trunk.") for l in busiest_links(fat, top=2))


class TestSpeedupTable:
    def test_requires_baseline(self):
        with pytest.raises(ValueError):
            speedup_table({4: 2.0})

    def test_contents(self):
        text = speedup_table({1: 8.0, 4: 2.5})
        assert "3.20" in text  # speedup at 4
        assert "80.0%" in text  # efficiency


class TestAdaptationTimeline:
    def test_empty_without_events(self, run):
        assert adaptation_timeline(run) == []

    def test_records_leave(self, adaptive_run):
        timeline = adaptation_timeline(adaptive_run)
        assert len(timeline) == 1
        entry = timeline[0]
        assert entry["kind"] == "leave"
        assert entry["nodes"] == [3]
        assert entry["team"] == (4, 3)
        assert entry["cost"] > 0
        assert entry["drained_pages"] > 0
