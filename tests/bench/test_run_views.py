"""What a finished run reports about itself: per-process time
(``RunResult.per_process``), per-link busy time (``Switch.link_report()``)
and the adaptation records (``ExperimentResult.adapt_records``)."""

import pytest

from repro.apps import Jacobi
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


def busiest(result, top):
    links = result.runtime.switch.link_report()
    return sorted(links, key=lambda name: (-links[name], name))[:top]


class TestPerProcess:
    def test_every_process_present(self, run):
        assert sorted(run.run_result.per_process) == [0, 1, 2, 3]

    def test_compute_and_stalls_recorded(self, run):
        for stats in run.run_result.per_process.values():
            assert stats.compute_time > 0
            assert 0 < stats.fault_wait_time < run.runtime_seconds

    def test_balanced_kernel_has_equal_compute_shares(self, run):
        computes = [s.compute_time for s in run.run_result.per_process.values()]
        assert max(computes) < 1.1 * min(computes)

    def test_accounted_not_exceeding_runtime_grossly(self, run):
        for s in run.run_result.per_process.values():
            accounted = (s.compute_time + s.fault_wait_time
                         + s.barrier_wait_time + s.lock_wait_time)
            assert accounted <= run.runtime_seconds * 1.5


class TestLinks:
    def test_all_links_reported(self, run):
        assert {"up0", "down0", "up3", "down3"} <= set(run.runtime.switch.link_report())

    def test_busy_time_within_the_run(self, run):
        for busy in run.runtime.switch.link_report().values():
            assert 0.0 <= busy <= run.runtime_seconds

    def test_master_links_busiest_during_leave(self, adaptive_run):
        """Leave drains concentrate on the master port (§5.4/§7)."""
        assert {"down0", "up0"} & set(busiest(adaptive_run, top=2))

    def test_fattree_trunks_reported(self):
        """§5.4's max-per-link view covers the trunks, where a fat-tree's
        traffic concentrates: each carries a whole leaf's."""
        cfg = SystemConfig(perf=PerfParams(topology="fattree", topology_radix=2))
        fat = run_experiment(lambda: Jacobi(200, 10), nprocs=8, cfg=cfg)
        names = set(fat.runtime.switch.link_report())
        assert {f"trunk.{d}{leaf}" for d in ("up", "down") for leaf in range(4)} <= names
        assert len(names) == 16 + 8
        assert any(name.startswith("trunk.") for name in busiest(fat, top=2))


class TestAdaptRecords:
    def test_empty_without_events(self, run):
        assert run.adapt_records == []

    def test_records_leave(self, adaptive_run):
        [rec] = adaptive_run.adapt_records
        assert rec.leaves == [3] and not rec.urgent_leaves and not rec.joins
        assert (rec.nprocs_before, rec.nprocs_after) == (4, 3)
        assert rec.duration > 0
        assert rec.drained_pages > 0
