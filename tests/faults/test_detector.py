"""Heartbeat failure-detector behaviour."""

import dataclasses

from repro.config import FaultParams, SystemConfig
from repro.faults import FaultInjector, parse_plan

from ..helpers import build_adaptive
from ..core.test_checkpoint import counter_program


def _cfg(**faults):
    return dataclasses.replace(SystemConfig(), faults=FaultParams(**faults))


class TestHealthyRuns:
    def test_heartbeats_flow_without_suspicion(self):
        sim, rt, pool = build_adaptive(nprocs=3, failure_detection=True)
        prog, *_ = counter_program(rt, n_iter=10)
        res = rt.run(prog)
        assert res.detector.heartbeats_sent > 0
        assert res.detector.heartbeat_misses == 0
        assert res.detector.false_suspicions == 0
        assert res.recoveries == []

    def test_disabled_interval_sends_nothing(self):
        cfg = _cfg(heartbeat_interval=0.0)
        sim, rt, pool = build_adaptive(nprocs=3, cfg=cfg, failure_detection=True)
        prog, *_ = counter_program(rt, n_iter=5)
        res = rt.run(prog)
        assert res.detector.heartbeats_sent == 0

    def test_no_failure_detection_means_no_detector(self):
        sim, rt, pool = build_adaptive(nprocs=3)
        prog, *_ = counter_program(rt, n_iter=5)
        res = rt.run(prog)
        assert rt.detector is None
        assert res.detector.heartbeats_sent == 0


class TestSuspicion:
    def test_transient_degradation_yields_false_suspicion(self):
        """Acks arriving after the deadline: suspected, then cleared.

        A degraded port stretches the heartbeat round trip past the probe
        timeout without dropping anything — the exact congestion scenario
        false suspicions exist for.  (A *cut* would also swallow one-way
        control messages like FORK, which have no retransmission; only
        sustained cuts, which end in fencing, model partitions safely.)
        """
        cfg = _cfg(heartbeat_interval=0.05, heartbeat_timeout=0.02,
                   suspicion_threshold=6)
        sim, rt, pool = build_adaptive(nprocs=3, cfg=cfg, failure_detection=True)
        prog, *_ = counter_program(rt, n_iter=20)
        # RTT +40ms >> the 20ms deadline for ~2 rounds, then back to normal
        FaultInjector(
            rt, parse_plan("0.30 degrade 1 0.02\n0.42 restore 1")
        ).install()
        res = rt.run(prog)
        assert res.detector.heartbeat_misses >= 1
        assert res.detector.false_suspicions >= 1
        assert res.recoveries == []
        # A probe that timed out gave up its reply-table entry (its late
        # ack was dropped on arrival), as did every answered request.
        assert not rt.master.node.nic._reply_waiters

    def test_sustained_partition_declares_crash(self):
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2,
                                       failure_detection=True)
        prog, *_ = counter_program(rt, n_iter=20)
        FaultInjector(rt, parse_plan("0.30 cut 0 1")).install()
        res = rt.run(prog)
        assert len(res.recoveries) == 1
        rec = res.recoveries[0]
        assert rec.crashed_nodes == [1]
        assert rec.reason == "heartbeat"
        # a pure partition has no true crash instant: latency reads 0
        assert rec.detection_latency == 0.0
        # fencing: the partitioned node was forcibly crashed
        assert pool.node(1).crashed

    def test_crash_detected_within_threshold_rounds(self):
        cfg = _cfg(heartbeat_interval=0.05, heartbeat_timeout=0.02,
                   suspicion_threshold=3)
        sim, rt, pool = build_adaptive(nprocs=3, extra_nodes=2, cfg=cfg,
                                       failure_detection=True)
        prog, *_ = counter_program(rt, n_iter=20)
        victim = rt.team.node_of(1)
        sim.schedule(0.4, lambda: rt.inject_crash(victim))
        res = rt.run(prog)
        rec = res.recoveries[0]
        assert rec.reason == "heartbeat"
        assert 0.0 < rec.detection_latency <= 3 * (0.05 + 0.02) + 0.05
