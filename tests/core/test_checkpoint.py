"""Tests for adaptation-point checkpointing and recovery (§4.3)."""

import numpy as np
import pytest

from repro.core import restore_checkpoint
from repro.dsm import SharedArray, TmkProgram
from repro.dsm.process import PIPELINE_DEPTH
from repro.dsm.statistics import DsmStats
from repro.errors import CheckpointError
from repro.network import message as mk

from ..helpers import build_adaptive


def counter_program(rt, n_iter, shape=(32, 16), final=None):
    """Iterative kernel that also counts its iterations in shared memory,
    so a checkpoint shows where it was taken.  The driver always starts at
    ``init``; a restore replays it to the checkpointed fork.  If ``final``
    is a dict, the master faults in the whole grid at the end and stores a
    copy under ``final['grid']``."""
    seg = rt.malloc("grid", shape=shape, dtype="float64")
    meta = rt.malloc("meta", shape=(4,), dtype="int64")
    arr, ctr = SharedArray(seg), SharedArray(meta)

    def init(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.full())
            yield from ctx.access(ctr.seg, writes=ctr.full())
            if ctx.materialized:
                arr.view(ctx)[:] = 0.0
                ctr.view(ctx)[0] = 0

    def step(ctx, pid, nprocs, args):
        lo, hi = arr.block(pid, nprocs)
        yield from ctx.access(arr.seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi))
        if ctx.materialized:
            arr.view(ctx)[lo:hi] += 1.0
        if pid == 0:
            yield from ctx.access(ctr.seg, reads=ctr.full(), writes=ctr.full())
            if ctx.materialized:
                ctr.view(ctx)[0] = args + 1
        yield from ctx.compute(0.02)

    def driver(api):
        ctx = api.ctx
        yield from api.fork_join("init")
        for it in range(n_iter):
            yield from api.fork_join("step", it)
        if final is not None:
            yield from ctx.access(arr.seg, reads=arr.full())
            if ctx.materialized:
                final["grid"] = arr.view(ctx).copy()

    prog = TmkProgram({"init": init, "step": step}, driver, "ckpt-app")
    return prog, arr, ctr


class TestCheckpointTaking:
    def test_periodic_checkpoints_taken(self):
        sim, rt, pool = build_adaptive(nprocs=3, checkpoint_interval=0.1)
        prog, arr, ctr = counter_program(rt, n_iter=20)
        rt.run(prog)
        assert len(rt.ckpt_mgr.checkpoints) >= 2
        ck = rt.ckpt_mgr.checkpoints[0]
        assert ck.total_pages == rt.space.total_pages
        assert ck.image_bytes > ck.total_pages * 4096
        assert ck.write_seconds > 0

    def test_no_interval_no_checkpoints(self):
        sim, rt, pool = build_adaptive(nprocs=3)
        prog, arr, ctr = counter_program(rt, n_iter=5)
        rt.run(prog)
        assert rt.ckpt_mgr.checkpoints == []

    def test_checkpoint_captures_consistent_snapshot(self):
        """Segment data in the checkpoint equals the value at its iteration."""
        sim, rt, pool = build_adaptive(nprocs=3, checkpoint_interval=0.1)
        prog, arr, ctr = counter_program(rt, n_iter=20)
        rt.run(prog)
        for ck in rt.ckpt_mgr.checkpoints:
            grid = ck.segment_data["grid"].view("float64")
            it = int(ck.segment_data["meta"].view("int64")[0])
            assert set(np.unique(grid)) == {float(it)}

    def test_checkpoint_collects_pages_master_lacks(self):
        sim, rt, pool = build_adaptive(nprocs=4, checkpoint_interval=0.05)
        prog, arr, ctr = counter_program(rt, n_iter=10, shape=(64, 512))
        before = rt.master.stats.copy()
        rt.run(prog)
        # slave partitions must have been pulled to the master at checkpoints
        assert rt.master.stats.page_fetches > before.page_fetches


@pytest.mark.parametrize("caller, req_kind, reply_kind", [
    ("leave", mk.PAGE_REQ, mk.PAGE_REPLY),
    ("checkpoint", mk.CKPT_PAGE_REQ, mk.CKPT_PAGE_REPLY),
])
def test_collector_keeps_pipeline_depth_pulls_outstanding(caller, req_kind, reply_kind):
    """A leave drain and a checkpoint collection of more than
    ``PIPELINE_DEPTH`` pages fill the pipeline and never overfill it."""
    kw = {"checkpoint_interval": 0.05} if caller == "checkpoint" else {}
    sim, rt, pool = build_adaptive(nprocs=4, **kw)
    prog, arr, ctr = counter_program(rt, n_iter=10, shape=(256, 512))
    assert arr.seg.npages // 4 > PIPELINE_DEPTH  # pages per process
    if caller == "leave":
        sim.schedule(0.05, lambda: rt.submit_leave(3))
    master_node = rt.master.node.node_id
    transmit = rt.switch.transmit
    outstanding = peak = 0

    def counting_transmit(msg):
        nonlocal outstanding, peak
        if msg.kind == req_kind and msg.src == master_node:
            outstanding += 1
            peak = max(peak, outstanding)
        elif msg.kind == reply_kind and msg.dst == master_node:
            outstanding -= 1
        return transmit(msg)

    rt.switch.transmit = counting_transmit
    res = rt.run(prog)
    if caller == "leave":
        assert res.adapt_log[0].drained_pages > PIPELINE_DEPTH
    else:
        assert rt.ckpt_mgr.checkpoints
    assert peak == PIPELINE_DEPTH
    assert outstanding == 0


class TestRecovery:
    def test_restart_from_checkpoint_completes_correctly(self):
        n_iter = 20
        sim, rt, pool = build_adaptive(nprocs=3, checkpoint_interval=0.1)
        prog, arr, ctr = counter_program(rt, n_iter=n_iter)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[1]
        it_at_ck = int(ck.segment_data["meta"].view("int64")[0])
        assert 0 < it_at_ck < n_iter
        assert ck.phases == ("init",) + ("step",) * it_at_ck

        # "crash": build a brand-new system (different node count even) and
        # restore the checkpoint into it
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        final = {}
        prog2, arr2, ctr2 = counter_program(rt2, n_iter=n_iter, final=final)
        restore_checkpoint(rt2, ck)
        res = rt2.run(prog2)

        np.testing.assert_array_equal(
            final["grid"], np.full((32, 16), float(n_iter))
        )
        # the replayed forks cost nothing: only the rest ran
        assert res.forks == n_iter - it_at_ck
        assert rt2.phases == ["init"] + ["step"] * n_iter

    def test_restore_the_checkpoint_taken_after_the_driver_returned(self):
        """The last adaptation point follows the driver's final collect:
        restoring it replays every fork and the collect reads the
        restored memory."""
        n_iter = 3
        sim, rt, pool = build_adaptive(nprocs=3, checkpoint_interval=0.0)
        prog, *_ = counter_program(rt, n_iter=n_iter, final={})
        res = rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[-1]
        assert len(ck.phases) == res.forks == n_iter + 1

        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        final = {}
        prog2, *_ = counter_program(rt2, n_iter=n_iter, final=final)
        restore_checkpoint(rt2, ck)
        res2 = rt2.run(prog2)
        assert res2.forks == 0
        assert res2.runtime_seconds == 0.0
        np.testing.assert_array_equal(
            final["grid"], np.full((32, 16), float(n_iter))
        )

    def test_region_operations_return_at_once_while_replaying(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=5)
        rt.run(prog)
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        prog2, arr, ctr = counter_program(rt2, n_iter=5)
        restore_checkpoint(rt2, rt.ckpt_mgr.checkpoints[-1])
        ctx = rt2.master_ctx
        for op in (ctx.access(arr.seg, reads=arr.full(), writes=arr.full()),
                   ctx.access_batch([(ctr.seg, ctr.full(), ctr.full())]),
                   ctx.compute(1.0), ctx.barrier(), ctx.lock(0)):
            assert list(op) == []  # nothing to wait for: no simulated time
        ctx.unlock(0)
        ctx.array(arr.seg)[:] = -1.0  # a copy: the restored memory stays
        assert (ctx.array(arr.seg) >= 0).all()
        assert rt2.master.stats == DsmStats()
        assert not rt2.master.lrc.writes

    def test_driver_that_reads_shared_data_cannot_replay(self):
        """The old resumable-kernel convention — the driver picks its first
        fork from a counter in shared memory — diverges from the recorded
        phases, and the replay says so."""
        n_iter = 20
        sim, rt, pool = build_adaptive(nprocs=3, checkpoint_interval=0.1)
        prog, arr, ctr = counter_program(rt, n_iter=n_iter)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[1]

        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        prog2, arr2, ctr2 = counter_program(rt2, n_iter=n_iter)

        def resuming_driver(api):
            ctx = api.ctx
            start = int(ctr2.view(ctx)[0])
            if start == 0:
                yield from api.fork_join("init")
            for it in range(start, n_iter):
                yield from api.fork_join("step", it)

        restore_checkpoint(rt2, ck)
        with pytest.raises(CheckpointError, match="replayed fork #1 is 'step'"):
            rt2.run(TmkProgram(prog2.phases, resuming_driver, "resuming"))

    def test_driver_that_stops_short_of_the_record_raises(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=20)
        rt.run(prog)
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        prog2, *_ = counter_program(rt2, n_iter=2)
        restore_checkpoint(rt2, rt.ckpt_mgr.checkpoints[1])
        with pytest.raises(CheckpointError, match="driver returned after 3 of"):
            rt2.run(prog2)

    def test_restore_after_run_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, arr, ctr = counter_program(rt, n_iter=5)
        rt.run(prog)
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        prog2, *_ = counter_program(rt2, n_iter=5)
        rt2.run(prog2)
        with pytest.raises(CheckpointError):
            restore_checkpoint(rt2, rt.ckpt_mgr.checkpoints[0])

    def test_restore_requires_matching_segments(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=5)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[0]
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        rt2.malloc("other", shape=(8,), dtype="float64")
        with pytest.raises(CheckpointError):
            restore_checkpoint(rt2, ck)

    def test_restore_missing_segment_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=5)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[0]
        del ck.segment_data["meta"]
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        counter_program(rt2, n_iter=5)
        with pytest.raises(CheckpointError, match="lacks segment"):
            restore_checkpoint(rt2, ck)

    def test_restore_size_mismatch_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=5)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[0]
        ck.segment_data["grid"] = ck.segment_data["grid"][:-8]
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        counter_program(rt2, n_iter=5)
        with pytest.raises(CheckpointError, match="size mismatch"):
            restore_checkpoint(rt2, ck)

    def test_live_restore_page_count_mismatch_rejected(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=5)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[0]
        sim2, rt2, pool2 = build_adaptive(nprocs=2)
        rt2.malloc("grid", shape=(32, 16), dtype="float64")  # meta missing
        with pytest.raises(CheckpointError, match="pages"):
            restore_checkpoint(rt2, ck)

    def test_master_owns_everything_after_restore(self):
        sim, rt, pool = build_adaptive(nprocs=2, checkpoint_interval=0.1)
        prog, *_ = counter_program(rt, n_iter=5)
        rt.run(prog)
        ck = rt.ckpt_mgr.checkpoints[-1]
        sim2, rt2, pool2 = build_adaptive(nprocs=3)
        counter_program(rt2, n_iter=5)
        restore_checkpoint(rt2, ck)
        for page in range(rt2.space.total_pages):
            assert rt2.master.lrc.owner_of(page) == 0
            assert rt2.master.lrc.readable(page)
