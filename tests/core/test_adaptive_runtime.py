"""Integration tests for the adaptive runtime: joins, leaves, urgent
leaves with migration/multiplexing, master migration, and the
no-adaptation-no-overhead property (Table 1's headline claim)."""

import numpy as np
import pytest

from repro.core import RequestState
from repro.dsm import SharedArray, TmkProgram
from repro.errors import AdaptationError
from repro.obs import Registry

from ..golden import golden_row
from ..helpers import build_adaptive, build_system


def iterative_program(rt, n_iter=20, shape=(64, 17), compute=0.01, checks=None):
    """An iterative add-one kernel; verifies final values on every proc."""
    seg = rt.malloc("grid", shape=shape, dtype="float64")
    arr = SharedArray(seg)

    def init(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.full())
            if ctx.materialized:
                arr.view(ctx)[:] = 1.0

    def step(ctx, pid, nprocs, args):
        lo, hi = arr.block(pid, nprocs)
        yield from ctx.access(arr.seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi))
        if ctx.materialized:
            arr.view(ctx)[lo:hi] += 1.0
        yield from ctx.compute(compute)

    def check(ctx, pid, nprocs, args):
        yield from ctx.access(arr.seg, reads=arr.full())
        if ctx.materialized:
            np.testing.assert_array_equal(
                arr.view(ctx), np.full(shape, 1.0 + n_iter)
            )
        if checks is not None:
            checks.append((pid, nprocs))

    def driver(api):
        yield from api.fork_join("init")
        for it in range(n_iter):
            yield from api.fork_join("step", it)
        yield from api.fork_join("check")

    return TmkProgram({"init": init, "step": step, "check": check}, driver, "iter")


class TestJoin:
    def test_join_absorbed_and_data_correct(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=1)
        checks = []
        # long enough that the join (spawn 0.6-0.8 s + connects) lands mid-run
        prog = iterative_program(rt, n_iter=40, compute=0.05, checks=checks)
        sim.schedule(0.01, lambda: rt.submit_join(3))
        res = rt.run(prog)
        assert res.adaptations == 1
        assert res.adapt_log[0].joins == [3]
        assert res.adapt_log[0].nprocs_after == 4
        assert sorted(p for p, n in checks) == [0, 1, 2, 3]
        assert all(n == 4 for _, n in checks)

    def test_join_waits_for_connection_setup(self):
        """The join is only absorbed once setup (spawn + connects) is done."""
        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=1)
        prog = iterative_program(rt, n_iter=60, compute=0.05)
        req = {}
        sim.schedule(0.01, lambda: req.setdefault("r", rt.submit_join(2)))
        res = rt.run(prog)
        assert req["r"].state is RequestState.DONE
        assert req["r"].ready_at is not None
        record = res.adapt_log[0]
        assert record.time >= req["r"].ready_at

    def test_join_of_participating_node_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2)
        with pytest.raises(AdaptationError):
            rt.submit_join(0)

    def test_two_joins_batched_at_one_point(self):
        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=2)
        # sparse adaptation points (1 s apart): both joins are ready
        # (spawn 0.6-0.8 s) before the next fork, so they batch
        prog = iterative_program(rt, n_iter=4, compute=1.0)
        sim.schedule(0.01, lambda: rt.submit_join(2))
        sim.schedule(0.01, lambda: rt.submit_join(3))
        res = rt.run(prog)
        assert res.adaptations == 2
        assert len(res.adapt_log) == 1  # one adaptation point handled both
        assert res.adapt_log[0].nprocs_after == 4


class TestNormalLeave:
    def test_end_leave(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        checks = []
        prog = iterative_program(rt, n_iter=40, checks=checks)
        sim.schedule(0.05, lambda: rt.submit_leave(3))
        res = rt.run(prog)
        assert res.adaptations == 1
        assert res.adapt_log[0].leaves == [3]
        assert res.adapt_log[0].nprocs_after == 3
        assert sorted(p for p, n in checks) == [0, 1, 2]
        assert not pool.node(3).in_pool  # owner got the machine back

    def test_middle_leave_reassigns_ids(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        checks = []
        prog = iterative_program(rt, n_iter=40, checks=checks)
        sim.schedule(0.05, lambda: rt.submit_leave(1))
        res = rt.run(prog)
        assert sorted(p for p, n in checks) == [0, 1, 2]
        # surviving nodes are 0, 2, 3 under pids 0, 1, 2
        assert rt.team.snapshot() == {0: 0, 1: 2, 2: 3}

    def test_leave_within_grace_is_normal(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=40)
        req = {}
        sim.schedule(0.05, lambda: req.setdefault("r", rt.submit_leave(2, grace=5.0)))
        rt.run(prog)
        assert req["r"].was_urgent is False
        assert req["r"].state is RequestState.DONE

    def test_leave_of_idle_node_just_withdraws(self):
        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=1)
        assert rt.submit_leave(2) is None
        assert not pool.node(2).in_pool

    def test_join_and_leave_batched_together(self):
        sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=1)
        checks = []
        prog = iterative_program(rt, n_iter=4, compute=1.0, checks=checks)
        sim.schedule(0.01, lambda: rt.submit_join(4))
        # both requests are outstanding at the fork boundary near t~1.0,
        # so one adaptation point handles the join and the leave together
        sim.schedule(0.70, lambda: rt.submit_leave(2, grace=30.0))
        res = rt.run(prog)
        both = [r for r in res.adapt_log if r.joins and r.leaves]
        assert both, f"expected one batched adaptation, got {res.adapt_log}"
        assert sorted(p for p, n in checks) == [0, 1, 2, 3]

    def test_leaver_pages_move_to_master(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=30)
        sim.schedule(0.05, lambda: rt.submit_leave(3))
        res = rt.run(prog)
        # after the leave every page the leaver owned belongs to someone alive
        for page in range(rt.space.total_pages):
            owner = rt.master.lrc.owner_of(page)
            assert owner in rt.team.pids


class TestUrgentLeave:
    def test_grace_expiry_triggers_migration(self):
        """Long compute chunks keep adaptation points far apart, so a short
        grace period forces the urgent path: migrate + multiplex."""
        sim, rt, pool = build_adaptive(nprocs=3)
        checks = []
        prog = iterative_program(rt, n_iter=6, compute=1.0, checks=checks)
        req = {}
        sim.schedule(0.5, lambda: req.setdefault("r", rt.submit_leave(2, grace=0.2)))
        res = rt.run(prog)
        assert req["r"].was_urgent is True
        assert req["r"].migrated_at is not None
        assert len(rt.migrations) == 1
        mig = rt.migrations[0]
        assert mig.src_node == 2
        # migration cost model: spawn 0.6-0.8 s + image/8.1MBps
        assert mig.spawn_seconds >= 0.6
        assert mig.copy_seconds > 0
        # the team eventually shrinks by a normal leave at an adaptation point
        assert res.adapt_log[-1].urgent_leaves == [2]
        assert sorted(p for p, n in checks) == [0, 1]
        assert not pool.node(2).in_pool

    def test_multiplexing_between_migration_and_adaptation_point(self):
        sim, rt, pool = build_adaptive(nprocs=3, obs=Registry())
        prog = iterative_program(rt, n_iter=6, compute=1.0)
        sim.schedule(0.5, lambda: rt.submit_leave(2, grace=0.2))
        rt.run(prog)
        mig = rt.migrations[0]
        target = pool.node(mig.dst_node)
        # after the adaptation point the multiplexed process is gone again
        assert target.resident_processes == 1
        kinds = [i.subject for i in sim.obs.select_instants(category="adapt")]
        assert "grace_expired" in kinds
        assert "migrated" in kinds
        assert kinds.index("migrated") < kinds.index("adaptation_end")

    def test_urgent_leave_data_still_correct(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        checks = []
        prog = iterative_program(rt, n_iter=5, compute=0.8, checks=checks)
        sim.schedule(0.3, lambda: rt.submit_leave(1, grace=0.1))
        rt.run(prog)
        assert sorted(p for p, n in checks) == [0, 1, 2]


class TestMasterLeave:
    def test_master_migrates_to_idle_node(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=1)
        checks = []
        prog = iterative_program(rt, n_iter=30, checks=checks)
        sim.schedule(0.05, lambda: rt.submit_leave(0))
        res = rt.run(prog)
        assert rt.team.node_of(0) == 3  # master now lives on the spare
        assert not pool.node(0).in_pool
        assert sorted(p for p, n in checks) == [0, 1, 2]
        assert len(rt.migrations) == 1

    def test_master_leave_without_spare_node_defers(self):
        """No idle target: the leave stays queued instead of aborting."""
        from repro.core.adaptation import RequestState

        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=0)
        checks = []
        prog = iterative_program(rt, n_iter=30, checks=checks)
        sim.schedule(0.05, lambda: rt.submit_leave(0))
        res = rt.run(prog)
        # the run completed, the master never moved, the leave is still open
        assert rt.team.node_of(0) == 0
        assert rt.migrations == []
        [req] = [l for l in rt.queue.pending_leaves() if l.node_id == 0]
        assert req.state is RequestState.PENDING
        assert sorted(p for p, n in checks) == [0, 1]
        # no adaptation was recorded for the deferred leave
        assert all(0 not in r.leaves + r.urgent_leaves for r in res.adapt_log)

    def test_master_leave_deferred_then_completed(self):
        """The deferred leave executes once a spare node appears."""
        sim, rt, pool = build_adaptive(nprocs=2, extra_nodes=0)
        checks = []
        prog = iterative_program(rt, n_iter=30, checks=checks)
        sim.schedule(0.05, lambda: rt.submit_leave(0))
        # a fresh workstation turns up mid-run
        sim.schedule(0.15, pool.add_node)
        rt.run(prog)
        assert rt.team.node_of(0) == 2  # master migrated to the new spare
        assert not pool.node(0).in_pool
        assert len(rt.migrations) == 1


class TestNoAdaptationOverhead:
    """Table 1: in the absence of adapt events there is no cost to
    supporting adaptivity, and network traffic is identical."""

    def _run(self, adaptive):
        if adaptive:
            sim, rt, pool = build_adaptive(nprocs=4, extra_nodes=0)
        else:
            sim, rt, pool = build_system(nprocs=4)
        prog = iterative_program(rt, n_iter=15)
        res = rt.run(prog)
        return res

    def test_identical_traffic_and_runtime(self):
        base = self._run(adaptive=False)
        adap = self._run(adaptive=True)
        assert adap.traffic.messages == base.traffic.messages
        assert adap.traffic.bytes == base.traffic.bytes
        assert adap.traffic.pages == base.traffic.pages
        assert adap.traffic.diffs == base.traffic.diffs
        assert adap.runtime_seconds == pytest.approx(base.runtime_seconds, rel=1e-9)
        assert adap.adaptations == 0


class TestAdaptivityInhibit:
    def test_non_adaptable_program_ignores_events(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=1)
        prog = iterative_program(rt, n_iter=30)
        prog.adaptable = False  # the §4.4 OpenMP switch
        sim.schedule(0.01, lambda: rt.submit_join(3))
        res = rt.run(prog)
        assert res.adaptations == 0
        assert rt.team.nprocs == 3


class TestAdaptationRecords:
    def test_record_fields(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=40)
        sim.schedule(0.05, lambda: rt.submit_leave(3))
        res = rt.run(prog)
        rec = res.adapt_log[0]
        assert rec.duration > 0
        assert rec.traffic_bytes > 0
        assert rec.max_link_bytes > 0
        assert rec.nprocs_before == 4 and rec.nprocs_after == 3

    def test_watchdog_cancelled_after_normal_leave(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        prog = iterative_program(rt, n_iter=20)
        sim.schedule(0.05, lambda: rt.submit_leave(3, grace=1000.0))
        res = rt.run(prog)
        # the run must not be stretched to the grace deadline
        assert res.runtime_seconds < 100.0


class TestRetiredStats:
    """``RunResult.total`` keeps the counts of engines that left the team or
    died in a crash, so it adds up to what the wire carried.  Checkpointed
    rows are left out of the page count: a ``CKPT_PAGE_REPLY`` is not
    counted in ``pages``."""

    @pytest.mark.parametrize("scenario", [
        "fft3d", "gauss", "jacobi", "nbf", "fft3d-mat", "gauss-mat",
        "jacobi-mat", "nbf-mat", "adapt", "adapt-mat"])
    def test_total_fetches_equal_the_wire(self, scenario):
        exp = golden_row(f"{scenario}/flat/obs-off").experiment
        total = exp.run_result.total
        assert total.page_fetches == exp.traffic.pages
        assert total.diffs_fetched == exp.traffic.diffs

    def test_the_leaver_is_retired(self):
        res = golden_row("adapt/flat/obs-off").experiment.run_result
        assert len(res.retired) == 1
        assert res.retired[0].page_fetches > 0

    @pytest.mark.parametrize("scenario", ["crash", "crash-mat"])
    def test_every_pre_crash_engine_is_retired(self, scenario):
        exp = golden_row(f"{scenario}/flat/obs-off").experiment
        assert len(exp.run_result.retired) == 4
        assert exp.run_result.total.diffs_fetched == exp.traffic.diffs
