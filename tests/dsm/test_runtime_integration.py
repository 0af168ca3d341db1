"""Integration tests for the TreadMarks fork/join runtime.

These run whole programs (materialized: real bytes through the DSM) and
check that the shared memory observed by every process equals what a
sequential execution would produce — the fundamental DSM correctness
property — plus protocol-level behaviours (single- vs multiple-writer,
GC, notices).
"""

import numpy as np
import pytest

from repro.dsm import Protocol, SharedArray
from repro.network import Message
from repro.network import message as mk

from ..helpers import build_system, run_phases


def make_array(runtime, name="A", shape=(32, 32), protocol=Protocol.MULTIPLE_WRITER):
    seg = runtime.malloc(name, shape=shape, dtype="float64", protocol=protocol)
    return SharedArray(seg)


def init_phase(arr, value_fn):
    def region(ctx, pid, nprocs, args):
        if pid == 0:
            yield from ctx.access(arr.seg, writes=arr.full())
            if ctx.materialized:
                arr.view(ctx)[:] = value_fn()
        yield from ctx.compute(1e-4)

    return region


def check_phase(arr, expected_fn, seen):
    def region(ctx, pid, nprocs, args):
        yield from ctx.access(arr.seg, reads=arr.full())
        if ctx.materialized:
            np.testing.assert_array_equal(arr.view(ctx), expected_fn())
        seen.append(pid)

    return region


class TestForkJoin:
    def test_master_writes_visible_to_all(self):
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt)
        seen = []
        base = lambda: np.arange(32 * 32, dtype=np.float64).reshape(32, 32)
        run_phases(
            rt,
            {"init": init_phase(arr, base), "check": check_phase(arr, base, seen)},
            ["init", "check"],
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_slave_writes_visible_everywhere(self):
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt)
        base = lambda: np.ones((32, 32))

        def scale(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, reads=arr.rows(lo, hi), writes=arr.rows(lo, hi))
            arr.view(ctx)[lo:hi] *= float(pid + 2)

        def expected():
            out = np.ones((32, 32))
            for pid in range(4):
                lo, hi = arr.block(pid, 4)
                out[lo:hi] *= pid + 2
            return out

        seen = []
        run_phases(
            rt,
            {
                "init": init_phase(arr, base),
                "scale": scale,
                "check": check_phase(arr, expected, seen),
            },
            ["init", "scale", "check"],
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_unaligned_partitions_use_diffs(self):
        """Row size 24 B => many writers per page: multiple-writer diffs."""
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt, shape=(64, 3))

        def write_rows(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, writes=arr.rows(lo, hi))
            arr.view(ctx)[lo:hi] = pid + 1.0

        def expected():
            out = np.zeros((64, 3))
            for pid in range(4):
                lo, hi = arr.block(pid, 4)
                out[lo:hi] = pid + 1.0
            return out

        seen = []
        res = run_phases(
            rt,
            {"w": write_rows, "check": check_phase(arr, expected, seen)},
            ["w", "check"],
        )
        assert res.traffic.diffs > 0
        assert sorted(seen) == [0, 1, 2, 3]

    def test_single_writer_protocol_fetches_pages_not_diffs(self):
        sim, rt, pool = build_system(nprocs=4)
        # 512 B rows: 8 rows per page; partition 32/4 = 8 rows -> page aligned.
        arr = make_array(rt, shape=(32, 64), protocol=Protocol.SINGLE_WRITER)

        def write_rows(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, writes=arr.rows(lo, hi))
            arr.view(ctx)[lo:hi] = pid + 1.0

        def expected():
            out = np.zeros((32, 64))
            for pid in range(4):
                lo, hi = arr.block(pid, 4)
                out[lo:hi] = pid + 1.0
            return out

        seen = []
        res = run_phases(
            rt,
            {"w": write_rows, "check": check_phase(arr, expected, seen)},
            ["w", "check"],
        )
        assert res.traffic.diffs == 0
        assert res.traffic.pages > 0
        assert sorted(seen) == [0, 1, 2, 3]

    def test_single_writer_page_demoted_on_write_sharing(self):
        """Concurrent writers on a single-writer page demote it to the
        multiple-writer (diff) protocol, like TreadMarks, and disjoint
        concurrent writes still merge correctly."""
        sim, rt, pool = build_system(nprocs=2, trace=True)
        # one page, two disjoint halves written concurrently
        arr = make_array(rt, shape=(2, 64), protocol=Protocol.SINGLE_WRITER)

        def conflict(ctx, pid, nprocs, args):
            yield from ctx.access(arr.seg, writes=arr.rows(pid, pid + 1))
            arr.view(ctx)[pid] = pid + 1.0

        def expected():
            out = np.zeros((2, 64))
            out[0] = 1.0
            out[1] = 2.0
            return out

        seen = []
        run_phases(
            rt,
            {"c": conflict, "check": check_phase(arr, expected, seen)},
            ["c", "check"],
        )
        assert sorted(seen) == [0, 1]
        assert sim.tracer.select(category="dsm", subject="demote")

    def test_run_with_one_process(self):
        sim, rt, pool = build_system(nprocs=1)
        arr = make_array(rt)
        base = lambda: np.full((32, 32), 3.0)
        seen = []
        res = run_phases(
            rt,
            {"init": init_phase(arr, base), "check": check_phase(arr, base, seen)},
            ["init", "check"],
        )
        assert seen == [0]
        assert res.traffic.messages == 0  # no remote traffic with 1 process

    def test_fork_args_passed_to_regions(self):
        sim, rt, pool = build_system(nprocs=3)
        got = []

        def region(ctx, pid, nprocs, args):
            got.append((pid, args))
            yield from ctx.compute(1e-5)

        run_phases(rt, {"r": region}, [("r", {"iter": 7})])
        assert sorted(got) == [(0, {"iter": 7}), (1, {"iter": 7}), (2, {"iter": 7})]

    def test_runtime_seconds_accumulates_compute(self):
        sim, rt, pool = build_system(nprocs=2)

        def region(ctx, pid, nprocs, args):
            yield from ctx.compute(0.5)

        res = run_phases(rt, {"r": region}, ["r", "r"])
        assert res.runtime_seconds >= 1.0
        assert res.forks == 2


class TestInnerBarrier:
    def test_barrier_orders_cross_phase_writes(self):
        """Within one region: write own block, barrier, read neighbour's."""
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt, shape=(64, 64))
        results = []

        def region(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, writes=arr.rows(lo, hi))
            arr.view(ctx)[lo:hi] = pid + 1.0
            yield from ctx.barrier()
            nxt = (pid + 1) % nprocs
            nlo, nhi = arr.block(nxt, nprocs)
            yield from ctx.access(arr.seg, reads=arr.rows(nlo, nhi))
            results.append((pid, float(arr.view(ctx)[nlo, 0])))

        run_phases(rt, {"r": region}, ["r"])
        assert sorted(results) == [(0, 2.0), (1, 3.0), (2, 4.0), (3, 1.0)]

    def test_multiple_barriers_in_one_region(self):
        sim, rt, pool = build_system(nprocs=3)
        order = []

        def region(ctx, pid, nprocs, args):
            for step in range(3):
                yield from ctx.compute(1e-4 * (pid + 1))
                yield from ctx.barrier()
                order.append((step, pid))

        run_phases(rt, {"r": region}, ["r"])
        # all procs finish barrier k before any enters barrier k+1 records
        steps = [s for s, _ in order]
        assert steps == sorted(steps)


class TestLocks:
    def test_lock_serializes_counter_increments(self):
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt, shape=(4,))

        def incr(ctx, pid, nprocs, args):
            for _ in range(3):
                yield from ctx.lock(1)
                yield from ctx.access(arr.seg, reads=arr.full(), writes=arr.full())
                arr.view(ctx)[0] += 1.0
                ctx.unlock(1)
                yield from ctx.compute(1e-5)

        def check(ctx, pid, nprocs, args):
            yield from ctx.access(arr.seg, reads=arr.full())
            assert arr.view(ctx)[0] == 12.0

        run_phases(rt, {"incr": incr, "check": check}, ["incr", "check"])

    def test_release_without_hold_raises(self):
        from repro.errors import SimulationError

        sim, rt, pool = build_system(nprocs=2)

        def bad(ctx, pid, nprocs, args):
            if pid == 1:
                ctx.unlock(5)
            yield from ctx.compute(1e-5)

        with pytest.raises(SimulationError):
            run_phases(rt, {"bad": bad}, ["bad"])


class TestGarbageCollection:
    def test_forced_gc_preserves_data(self):
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt)
        base = lambda: np.full((32, 32), 5.0)
        seen = []

        def force_gc_phase(ctx, pid, nprocs, args):
            yield from ctx.compute(1e-5)

        phases = {
            "init": init_phase(arr, base),
            "noop": force_gc_phase,
            "check": check_phase(arr, base, seen),
        }

        def driver(api):
            yield from api.fork_join("init")
            yield from api.fork_join("noop")
            yield from api._runtime.gc_at_fork_point()
            yield from api.fork_join("check")

        from repro.dsm import TmkProgram

        rt.run(TmkProgram(phases, driver, "gc-test"))
        assert sorted(seen) == [0, 1, 2, 3]
        assert all(p.stats.gcs == 1 for p in rt.procs.values())
        assert all(p.epoch == 1 for p in rt.procs.values())

    def test_gc_transfers_ownership_to_last_writer(self):
        sim, rt, pool = build_system(nprocs=4)
        arr = make_array(rt, shape=(64, 64))

        def write_block(ctx, pid, nprocs, args):
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, writes=arr.rows(lo, hi))
            arr.view(ctx)[lo:hi] = pid

        def driver(api):
            yield from api.fork_join("w")
            yield from api._runtime.gc_at_fork_point()

        from repro.dsm import TmkProgram

        rt.run(TmkProgram({"w": write_block}, driver, "gc-own"))
        # every proc agrees that the writer of each block owns its pages
        for pid in range(4):
            lo, hi = arr.block(pid, 4)
            page = arr.seg.page0 + (lo * arr.row_bytes) // 4096
            for proc in rt.procs.values():
                assert proc.owner_of(page) == pid

    def test_gc_interval_limit_triggers_automatically(self):
        from repro.config import DsmParams, SystemConfig

        cfg = SystemConfig(dsm=DsmParams(gc_interval_limit=3))
        sim, rt, pool = build_system(nprocs=2, cfg=cfg)
        arr = make_array(rt, shape=(8, 8))

        def touch(ctx, pid, nprocs, args):
            if pid == 0:
                yield from ctx.access(arr.seg, writes=arr.rows(0, 1))
                arr.view(ctx)[0] += 1

        res = run_phases(rt, {"t": touch}, ["t"] * 8)
        assert all(p.stats.gcs >= 1 for p in rt.procs.values())

    def test_after_gc_reads_fetch_full_pages_from_owner(self):
        sim, rt, pool = build_system(nprocs=2)
        arr = make_array(rt, shape=(8, 512))  # exactly 8 pages
        base = lambda: np.full((8, 512), 2.5)
        seen = []

        def driver(api):
            yield from api.fork_join("init")
            yield from api._runtime.gc_at_fork_point()
            yield from api.fork_join("check")

        from repro.dsm import TmkProgram

        phases = {
            "init": init_phase(arr, base),
            "check": check_phase(arr, base, seen),
        }
        res = rt.run(TmkProgram(phases, driver, "gc-read"))
        assert sorted(seen) == [0, 1]


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def one_run():
            sim, rt, pool = build_system(nprocs=4)
            arr = make_array(rt, shape=(48, 48))

            def work(ctx, pid, nprocs, args):
                lo, hi = arr.block(pid, nprocs)
                yield from ctx.access(arr.seg, reads=arr.full(), writes=arr.rows(lo, hi))
                arr.view(ctx)[lo:hi] += pid
                yield from ctx.compute(1e-3)

            res = run_phases(rt, {"w": work}, ["w"] * 3)
            return res.runtime_seconds, res.traffic.messages, res.traffic.bytes

        assert one_run() == one_run()


class TestTracedMode:
    def test_traced_mode_produces_same_traffic_as_materialized(self):
        """Traffic shape must be identical with and without real bytes."""

        def one_run(materialized):
            sim, rt, pool = build_system(nprocs=4, materialized=materialized)
            arr = make_array(rt, shape=(40, 40))

            def work(ctx, pid, nprocs, args):
                lo, hi = arr.block(pid, nprocs)
                yield from ctx.access(
                    arr.seg, reads=arr.full(), writes=arr.rows(lo, hi)
                )
                if ctx.materialized:
                    arr.view(ctx)[lo:hi] = pid + 1.0
                yield from ctx.compute(1e-4)

            res = run_phases(rt, {"w": work}, ["w"] * 4)
            return res.traffic.messages, res.traffic.pages, res.traffic.diffs

        mat = one_run(True)
        traced = one_run(False)
        assert traced[0] == mat[0]
        assert traced[1] == mat[1]
        # traced diffs >= materialized (identical-byte writes are dropped
        # only when real bytes are compared)
        assert traced[2] >= mat[2]


class TestRequestServer:
    """The server side of a request, message by message (no program runs):
    the NIC hands a resident process its messages inside the delivering
    event, and each request is one hold on the node's handler CPU."""

    def _system(self, nprocs=3):
        sim, rt, pool = build_system(nprocs=nprocs)
        make_array(rt)
        sim.run()  # nothing is pending on an idle system
        return sim, rt

    @staticmethod
    def _request(rt, src_pid, kind, dst_pid, payload=None, *, dst_node=None,
                 addressed=True):
        """A raw request from ``src_pid``'s node; returns (message, replies)."""
        src = rt.procs[src_pid]
        msg = Message(
            kind, src=src.node.node_id,
            dst=rt.team.node_of(dst_pid) if dst_node is None else dst_node,
            size_bytes=8, payload=payload, src_pid=src_pid,
            dst_pid=dst_pid if addressed else None,
        )
        replies = []
        src.node.nic.request(msg).subscribe(lambda rep, exc: replies.append(rep))
        return msg, replies

    @staticmethod
    def _sent(rt, kind):
        return rt.nodes[0].switch.stats.snapshot().by_kind_messages[kind]

    @pytest.mark.parametrize("kind,payload,reply_kind", [
        (mk.PAGE_REQ, {"page": 0}, mk.PAGE_REPLY),
        (mk.DIFF_REQ, {"page": 0, "from_seq": 0, "to_seq": 0}, mk.DIFF_REPLY),
    ])
    def test_uncontended_round_trip_is_three_events(self, kind, payload, reply_kind):
        sim, rt = self._system()
        before = sim.events_executed
        _, replies = self._request(rt, 1, kind, 0, payload)
        sim.run()
        # request delivered (and taken), service time over (reply sent),
        # reply delivered (and the requester resumed)
        assert sim.events_executed - before == 3
        assert [rep.kind for rep in replies] == [reply_kind]
        assert not rt.procs[0]._holds and not rt.procs[0]._inflight_reqs

    def test_duplicate_in_service_suppressed_retransmission_served_again(self):
        sim, rt = self._system()
        nic = rt.procs[1].node.nic
        msg, replies = self._request(rt, 1, mk.PAGE_REQ, 0, {"page": 0})
        nic.send(msg)  # a duplicate, arriving while the original is in service
        sim.run()
        assert self._sent(rt, mk.PAGE_REQ) == 2 and self._sent(rt, mk.PAGE_REPLY) == 1
        nic.send(msg)  # a retransmission that crossed the reply
        sim.run()
        assert self._sent(rt, mk.PAGE_REPLY) == 2
        assert len(replies) == 1  # the second reply found no waiter: dropped

    def test_multiplexed_processes_share_one_nic(self):
        sim, rt = self._system()
        p1, p2 = rt.procs[1], rt.procs[2]
        node = p1.node
        p2.move_to_node(node)
        rt.team.move_pid(2, node.node_id)
        # addressed messages reach only their process, whatever the order
        rt.master.send(mk.PAGE_MAP, 2, {"owners": {0: 2}, "targets": [2]})
        rt.master.send(mk.PAGE_MAP, 1, {"owners": {0: 1}, "targets": [1]})
        sim.run()
        assert (p1.owners, p2.owners) == ({0: 1}, {0: 2})
        # unaddressed ones go to the front of the waiter order, which the
        # taker then leaves for the back: P1 was served last above
        served_by = []
        for _ in range(3):
            msg, _ = self._request(rt, 0, mk.CONNECT, 1, addressed=False)
            sim.run(until=sim.now + 80e-6)  # delivered, not yet acknowledged
            served_by.append([p.pid for p in (p1, p2)
                              if msg.req_id in p._inflight_reqs])
            sim.run()
        assert served_by == [[2], [1], [2]]
        assert self._sent(rt, mk.CONNECT_ACK) == 3

    def test_messages_delivered_before_start_server_are_served_in_order(self):
        sim, rt = self._system()
        p1 = rt.procs[1]
        p1._stop_taking()
        sent = [self._request(rt, 0, mk.CONNECT, 1) for _ in range(3)]
        sim.run()
        assert len(p1.node.nic.inbox) == 3
        p1.start_server()
        assert len(p1.node.nic.inbox) == 0
        sim.run()
        assert [[rep.req_id for rep in replies] for _, replies in sent] == [
            [msg.req_id] for msg, _ in sent]
        acked_at = [replies[0].arrived_at for _, replies in sent]
        assert acked_at == sorted(set(acked_at))

    @pytest.mark.parametrize("stop", ["fail_stop", "halt"])
    def test_stopping_drops_queued_and_in_service_requests(self, stop):
        sim, rt = self._system()
        p0, p1 = rt.procs[0], rt.procs[1]
        cpu = p0.node.handler_cpu
        for _ in range(3):
            self._request(rt, 1, mk.PAGE_REQ, 0, {"page": 0})
        sim.run(until=sim.now + 100e-6)
        assert cpu.in_use == 1 and len(cpu._queue) == 2 and len(p0._holds) == 3
        getattr(p0, stop)()
        assert cpu.in_use == 0 and not cpu._queue and not p0._holds
        sim.run()
        assert self._sent(rt, mk.PAGE_REPLY) == 0
        # the CPU serves whoever queues next
        done = []
        cpu.hold(1e-6, done.append)
        sim.run()
        assert len(done) == 1

    def test_handler_error_names_the_handler(self):
        from repro.errors import SimulationError

        sim, rt = self._system()
        # P1 never touched page 0 and is not its home: no valid copy
        self._request(rt, 2, mk.PAGE_REQ, 1, {"page": 0})
        with pytest.raises(SimulationError, match=r"'P1\.h\.page_req' failed.*"
                                                  r"holds no valid copy"):
            sim.run()

    def test_only_a_heartbeat_ack_may_be_lost_to_a_dark_prober(self):
        from repro.errors import SimulationError

        sim, rt = self._system()
        self._request(rt, 0, mk.HEARTBEAT, 1)
        sim.run(until=sim.now + 70e-6)
        rt.master.node.nic.detach()  # dark before the ack is sent
        sim.run()
        rt.master.node.nic.reattach()
        self._request(rt, 0, mk.CONNECT, 1)
        sim.run(until=sim.now + 70e-6)
        rt.master.node.nic.detach()
        with pytest.raises(SimulationError, match=r"'P1\.h\.connect' failed"):
            sim.run()
