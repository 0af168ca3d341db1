"""LinkFaults unit behaviour and its effect on live traffic."""

import pytest

from repro.errors import FaultError, NetworkError
from repro.faults import FaultInjector, parse_plan
from repro.network import LinkFaults
from repro.network.message import Message

from ..helpers import build_adaptive, run_phases


def _msg(kind="page_req", src=0, dst=1):
    return Message(kind, src=src, dst=dst, size_bytes=64)


class TestLinkFaultsState:
    def test_cut_blocks_both_directions(self):
        lf = LinkFaults()
        lf.cut(0, 2)
        assert lf.blocked(0, 2) and lf.blocked(2, 0)
        assert not lf.blocked(0, 1)
        lf.heal(0, 2)
        assert not lf.blocked(0, 2)

    def test_cut_self_rejected(self):
        with pytest.raises(FaultError):
            LinkFaults().cut(3, 3)

    def test_cut_latches_unreliable_heal_does_not_clear(self):
        lf = LinkFaults()
        assert not lf.unreliable
        lf.cut(0, 1)
        lf.heal(0, 1)
        assert lf.unreliable

    def test_degrade_adds_latency_on_either_endpoint(self):
        lf = LinkFaults()
        lf.degrade(1, 0.002)
        assert lf.extra_latency(0, 1) == pytest.approx(0.002)
        assert lf.extra_latency(1, 3) == pytest.approx(0.002)
        assert lf.extra_latency(0, 3) == 0.0
        lf.degrade(3, 0.001)
        assert lf.extra_latency(1, 3) == pytest.approx(0.003)
        lf.restore(1)
        assert lf.extra_latency(0, 1) == 0.0

    def test_degrade_negative_rejected(self):
        with pytest.raises(FaultError):
            LinkFaults().degrade(0, -1e-3)

    def test_rate_validation(self):
        lf = LinkFaults()
        for bad in (-0.1, 1.0, 2.0):
            with pytest.raises(FaultError):
                lf.set_duplicate(bad)
            with pytest.raises(FaultError):
                lf.set_delay(bad, 0.001)
        with pytest.raises(FaultError):
            lf.set_delay(0.5, -0.001)

    def test_duplicate_and_delay_are_data_plane_only(self):
        lf = LinkFaults(seed=1)
        lf.set_duplicate(0.999)
        lf.set_delay(0.999, 0.01)
        control = _msg(kind="heartbeat")
        assert not lf.duplicate(control)
        assert lf.delay_for(control) == 0.0
        data = _msg(kind="page_req")
        hits = sum(lf.duplicate(data) for _ in range(50))
        assert hits > 40

    def test_seeded_injection_is_deterministic(self):
        a, b = LinkFaults(seed=42), LinkFaults(seed=42)
        a.set_duplicate(0.5)
        b.set_duplicate(0.5)
        msgs = [_msg() for _ in range(32)]
        assert [a.duplicate(m) for m in msgs] == [b.duplicate(m) for m in msgs]


class TestLinkFaultsOnTheWire:
    def _compute_phases(self, rt):
        seg = rt.malloc("data", shape=(64, 64), dtype="float64")

        def work(ctx, pid, nprocs, args):
            from repro.dsm import SharedArray

            arr = SharedArray(seg)
            lo, hi = arr.block(pid, nprocs)
            yield from ctx.access(arr.seg, reads=arr.rows(lo, hi),
                                  writes=arr.rows(lo, hi))
            yield from ctx.compute(0.01)

        return {"work": work}

    def test_duplicates_and_delays_counted_and_harmless(self):
        sim, rt, pool = build_adaptive(nprocs=3)
        inj = FaultInjector(
            rt, parse_plan("0.0 duplicate 0.3\n0.0 delay 0.2 0.001")
        )
        inj.install()
        run_phases(rt, self._compute_phases(rt), ["work"] * 6)
        stats = rt.switch.stats.snapshot()
        assert stats.duplicated > 0
        assert stats.delayed > 0
        assert rt.finished

    def test_degraded_port_slows_the_run(self):
        sim1, rt1, _ = build_adaptive(nprocs=3)
        res1 = run_phases(rt1, self._compute_phases(rt1), ["work"] * 4)

        sim2, rt2, _ = build_adaptive(nprocs=3)
        FaultInjector(rt2, parse_plan("0.0 degrade 1 0.002")).install()
        res2 = run_phases(rt2, self._compute_phases(rt2), ["work"] * 4)
        assert res2.runtime_seconds > res1.runtime_seconds

    def test_cut_counts_and_send_into_cut_still_delivers_nothing(self):
        sim, rt, pool = build_adaptive(nprocs=3, failure_detection=True)
        FaultInjector(rt, parse_plan("0.0 cut 0 1")).install()
        run_phases(rt, self._compute_phases(rt), ["work"] * 4)
        stats = rt.switch.stats.snapshot()
        assert stats.cut > 0
        # the partitioned node was fenced off and the run still completed
        assert len(rt.recoveries) == 1
        assert rt.recoveries[0].crashed_nodes == [1]
