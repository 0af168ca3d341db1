"""Unit-level tests for the synchronization engine's barrier (round
counter, forced GC) and its error paths."""

import pytest

from repro.config import PerfParams, SystemConfig
from repro.dsm import SharedArray
from repro.errors import SimulationError
from repro.network import message as mk

from ..helpers import build_system, run_phases


def _stray_arrival(nprocs, sender, dst, cfg=None):
    """Run one barrier in which ``sender`` first sends an extra arrival to
    ``dst``; everyone else reaches the barrier much later."""
    sim, rt, pool = build_system(nprocs=nprocs, cfg=cfg)

    def region(ctx, pid, nprocs, args):
        if pid == sender:
            proc = ctx.proc
            proc.send(*proc.notice_leg(
                mk.BARRIER_ARRIVE, dst, proc.sync_notices(),
                {"pid": pid, "want_gc": False},
            ))
        else:
            yield from ctx.compute(1e-2)
        yield from ctx.barrier()

    run_phases(rt, {"r": region}, ["r"])


class TestBarrierErrors:
    def test_double_arrival_detected(self):
        """A process arriving twice at one round is a protocol violation."""
        with pytest.raises(SimulationError, match="pid 1 arrived twice at barrier 0"):
            _stray_arrival(nprocs=3, sender=1, dst=0)

    def test_arrival_at_a_non_parent_detected(self):
        """An arrival reaches its tree parent only: pid 3's parent in a
        radix-2 tree is pid 1, not the master."""
        cfg = SystemConfig(perf=PerfParams(barrier_tree=True, barrier_radix=2))
        with pytest.raises(SimulationError, match="pid 3 arrived at P0, not its parent"):
            _stray_arrival(nprocs=4, sender=3, dst=0, cfg=cfg)

    def test_rounds_increment(self):
        sim, rt, pool = build_system(nprocs=3)

        def region(ctx, pid, nprocs, args):
            yield from ctx.barrier()
            yield from ctx.barrier()

        run_phases(rt, {"r": region}, ["r"])
        assert [p.tree_barrier.round for p in rt.procs.values()] == [2, 2, 2]

    def test_forced_gc_flag_consumed(self):
        sim, rt, pool = build_system(nprocs=2)
        seg = rt.malloc("x", shape=(4,), dtype="float64")
        arr = SharedArray(seg)

        def region(ctx, pid, nprocs, args):
            if pid == 0:
                yield from ctx.access(arr.seg, writes=arr.full())
                arr.view(ctx)[:] = 1.0
            yield from ctx.barrier()
            yield from ctx.compute(1e-5)

        rt.master.tree_barrier.force_gc = True
        run_phases(rt, {"r": region}, ["r"])
        assert rt.master.tree_barrier.force_gc is False
        assert all(p.stats.gcs == 1 for p in rt.procs.values())


class TestBarrierSemantics:
    def test_barrier_is_global_synchronization(self):
        """Nobody passes barrier k until everyone reached it."""
        sim, rt, pool = build_system(nprocs=4)
        passage = []

        def region(ctx, pid, nprocs, args):
            yield from ctx.compute(1e-3 * (pid + 1))  # staggered arrivals
            passage.append(("arrive", pid, ctx.sim.now))
            yield from ctx.barrier()
            passage.append(("pass", pid, ctx.sim.now))

        run_phases(rt, {"r": region}, ["r"])
        last_arrival = max(t for kind, _, t in passage if kind == "arrive")
        first_pass = min(t for kind, _, t in passage if kind == "pass")
        assert first_pass >= last_arrival

    def test_barrier_wait_time_accounted(self):
        sim, rt, pool = build_system(nprocs=2)

        def region(ctx, pid, nprocs, args):
            yield from ctx.compute(0.1 if pid == 0 else 0.0)
            yield from ctx.barrier()

        run_phases(rt, {"r": region}, ["r"])
        # pid 1 arrived early and waited ~0.1 s
        assert rt.procs[1].stats.barrier_wait_time > 0.09
        assert rt.procs[0].stats.barrier_wait_time < 0.02

    def test_notices_flow_through_barrier_not_before(self):
        sim, rt, pool = build_system(nprocs=2)
        seg = rt.malloc("x", shape=(4,), dtype="float64")
        arr = SharedArray(seg)
        observed = {}

        def region(ctx, pid, nprocs, args):
            if pid == 0:
                yield from ctx.access(arr.seg, writes=arr.full())
                arr.view(ctx)[:] = 42.0
                yield from ctx.barrier()
            else:
                # before our barrier: no notice applied yet -> no pending
                pte_pending_before = any(ctx.proc.lrc.table.npending)
                yield from ctx.barrier()
                yield from ctx.access(arr.seg, reads=arr.full())
                observed["before"] = pte_pending_before
                observed["value"] = float(arr.view(ctx)[0])

        run_phases(rt, {"r": region}, ["r"])
        assert observed["value"] == 42.0
