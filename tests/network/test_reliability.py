"""Tests for message loss and request retransmission."""

import pytest

from repro.apps import KERNELS, TINY, Gauss, Jacobi
from repro.errors import FaultError, NetworkError
from repro.faults import FaultInjector, parse_plan
from repro.network import LinkFaults, Message, ReplyWait, Switch
from repro.network.message import PAGE_REQ
from repro.network.nic import MAX_RETRIES
from repro.simcore import Simulator

from ..helpers import build_adaptive, build_system, lossy_wire


class TestLoss:
    @staticmethod
    def _lossy(rate, loss_seed=0xD20):
        faults = LinkFaults(loss_seed=loss_seed)
        faults.set_loss(rate)
        return faults

    def test_rate_bounds(self):
        with pytest.raises(FaultError):
            LinkFaults().set_loss(1.0)
        with pytest.raises(FaultError):
            LinkFaults().set_loss(-0.1)

    def test_zero_rate_never_drops(self):
        faults = LinkFaults()
        msg = Message(PAGE_REQ, src=0, dst=1)
        assert not any(faults.dropped(msg) for _ in range(100))

    def test_control_plane_never_dropped(self):
        faults = self._lossy(0.99)
        msg = Message("fork", src=0, dst=1)
        assert not any(faults.dropped(msg) for _ in range(100))

    def test_data_plane_dropped_at_rate(self):
        faults = self._lossy(0.3, loss_seed=1)
        msg = Message(PAGE_REQ, src=0, dst=1)
        drops = sum(faults.dropped(msg) for _ in range(2000))
        assert 450 <= drops <= 750

    def test_deterministic_given_seed(self):
        def sequence(seed):
            faults = self._lossy(0.5, loss_seed=seed)
            msg = Message(PAGE_REQ, src=0, dst=1)
            return [faults.dropped(msg) for _ in range(50)]

        assert sequence(3) == sequence(3)
        assert sequence(3) != sequence(4)

    def test_loss_has_its_own_stream(self):
        """Duplicate and delay draws never move a drop decision."""
        msg = Message(PAGE_REQ, src=0, dst=1)
        quiet = self._lossy(0.5, loss_seed=3)
        noisy = self._lossy(0.5, loss_seed=3)
        noisy.set_duplicate(0.5)
        noisy.set_delay(0.5, 1e-3)
        drops = [quiet.dropped(msg) for _ in range(64)]
        noisy_drops = []
        for _ in range(64):
            noisy_drops.append(noisy.dropped(msg))
            noisy.delay_for(msg)
            noisy.duplicate(msg)
        assert noisy_drops == drops

    def test_a_lossy_wire_is_unreliable_from_the_start(self):
        """A ``loss`` plan line latches the wire unreliable at install,
        before it fires; the rate applies from its time on."""
        assert Switch(Simulator()).faults is None
        assert not LinkFaults().unreliable
        sim, rt, _ = build_system(nprocs=2)
        FaultInjector(rt, parse_plan("0.5 loss 0.1")).install()
        lossy = rt.switch.faults
        assert lossy.unreliable and lossy.loss_rate == 0.0
        sim.run()
        assert lossy.loss_rate == 0.1


class TestRetransmission:
    def _net(self, loss_rate):
        sim = Simulator()
        switch = Switch(sim)
        if loss_rate:
            switch.faults = LinkFaults()
            switch.faults.set_loss(loss_rate)
        nics = [switch.attach(i) for i in range(2)]
        return sim, switch, nics

    def _echo_server(self, sim, nic):
        def server():
            while True:
                msg = yield nic.inbox.recv()
                nic.send(msg.reply("page_reply", size_bytes=64))

        sim.process(server(), name="server", daemon=True)

    def test_lossless_path_unchanged(self):
        sim, switch, nics = self._net(0.0)
        self._echo_server(sim, nics[1])
        out = {}

        def client():
            reply = yield nics[0].request(Message(PAGE_REQ, src=0, dst=1, size_bytes=8))
            out["t"] = sim.now

        sim.process(client())
        sim.run()
        assert out["t"] < 1e-3  # no retransmit delays

    def test_lost_request_retransmitted(self):
        sim, switch, nics = self._net(0.45)
        self._echo_server(sim, nics[1])
        done = []

        def client():
            for _ in range(30):
                yield nics[0].request(Message(PAGE_REQ, src=0, dst=1, size_bytes=8))
                done.append(sim.now)

        sim.process(client())
        sim.run()
        assert len(done) == 30  # every request eventually answered
        stats = switch.stats.snapshot()
        assert stats.dropped > 0 and stats.retransmissions > 0

    def test_late_duplicate_reply_is_dropped(self):
        sim, switch, nics = self._net(1e-12)  # lossy, but loses nothing here
        out = []

        def server():
            msg = yield nics[1].inbox.recv()
            nics[1].send(msg.reply("page_reply", size_bytes=64))
            nics[1].send(msg.reply("page_reply", size_bytes=64))

        def client():
            out.append((yield nics[0].request(Message(PAGE_REQ, src=0, dst=1))))
            out.append((yield sim.timeout(1.0, "slept")))

        sim.process(server())
        sim.process(client())
        sim.run()
        # resumed once by the first copy; the second found no table entry
        assert [out[0].kind, out[1]] == ["page_reply", "slept"]
        assert not nics[0]._reply_waiters and len(nics[0].inbox) == 0

    def _silent_peer(self, sim, switch, nics, detach_after_send=False):
        """Request from node 0 to node 1, which never answers; returns the
        send times and what the client saw."""
        sends, out = [], []
        transmit = switch.transmit

        def spy(msg):
            if not msg.is_reply:
                sends.append(sim.now)
            return transmit(msg)

        switch.transmit = spy
        request = Message(PAGE_REQ, src=0, dst=1, size_bytes=8)

        def client():
            wait = nics[0].request(request)
            if detach_after_send:
                switch.detach(1)
            try:
                yield wait
            except NetworkError as err:
                out.append((sim.now, str(err)))
            # A reply that comes after the give-up finds no entry.
            nics[1].reattach()
            nics[1].send(request.reply("page_reply", size_bytes=64))
            out.append((yield sim.timeout(1.0, "slept")))

        sim.process(client())
        sim.run()
        return sends, out

    def test_silent_peer_backs_off_then_gives_up(self):
        """PROTOCOL §4's retransmission-collapse guard: the timeout doubles
        per re-send up to ``MAX_RTO``, and after ``MAX_RETRIES`` re-sends
        the waiter fails and gives up its reply-table entry."""
        sim, switch, nics = self._net(1e-12)  # lossy, but loses nothing here
        sends, out = self._silent_peer(sim, switch, nics)
        gaps_ms = [round((b - a) * 1e3, 9) for a, b in zip(sends, sends[1:])]
        assert gaps_ms == [4, 8, 16, 32, 64] + [128] * (MAX_RETRIES - 5)
        (failed_at, error), slept = out
        assert failed_at == pytest.approx(sends[-1] + 0.128)
        assert f"timed out after {MAX_RETRIES} retries" in error
        assert switch.stats.snapshot().retransmissions == MAX_RETRIES == 25
        # The late reply reached node 0 and was dropped: the client slept on.
        stats = switch.stats.snapshot()
        assert stats.by_kind_messages["page_reply"] == 1 and stats.dropped == 0
        assert slept == "slept"
        assert not nics[0]._reply_waiters and len(nics[0].inbox) == 0

    def test_unreachable_peer_times_out(self):
        """Re-sends to a detached peer fail on the spot; the wait keeps
        its schedule and gives up just the same."""
        sim, switch, nics = self._net(1e-12)
        sends, out = self._silent_peer(sim, switch, nics, detach_after_send=True)
        assert len(sends) == 1 + MAX_RETRIES
        assert switch.stats.snapshot().messages == 2  # the request, the reply
        (_failed_at, error), slept = out
        assert "timed out" in error and slept == "slept"
        assert switch.stats.snapshot().retransmissions == MAX_RETRIES

    def test_first_deadline_is_not_capped(self):
        """The heartbeat shape: one long deadline, no re-send."""
        sim, switch, nics = self._net(0.0)
        msg = Message(PAGE_REQ, src=0, dst=1, req_id=7)
        nics[0].send(msg)
        seen = []
        ReplyWait(nics[0], msg, rto=0.5, retries=0).subscribe(
            lambda reply, exc: seen.append((sim.now, type(exc))))
        sim.run()
        assert seen == [(0.5, NetworkError)]
        assert switch.stats.snapshot().retransmissions == 0


class TestLossyDsmRuns:
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_kernels_verify_under_loss(self, name):
        sim, rt, pool = build_system(nprocs=4)
        lossy_wire(rt, 0.10)
        app = KERNELS[name](**TINY[name])
        rt.run(app.program(rt))
        assert app.verify(rtol=1e-7, atol=1e-9), f"{name} diverged under loss"

    def test_loss_costs_time_not_correctness(self):
        def runtime(rate):
            sim, rt, pool = build_system(nprocs=4)
            if rate:
                lossy_wire(rt, rate)
            app = Gauss(**TINY["gauss"])
            res = rt.run(app.program(rt))
            assert app.verify(rtol=1e-7, atol=1e-9)
            return res.runtime_seconds

        assert runtime(0.25) > runtime(0.0)

    def test_adaptation_under_loss(self):
        sim, rt, pool = build_adaptive(nprocs=4)
        lossy_wire(rt, 0.10)
        app = Jacobi(**TINY["jacobi"])
        prog = app.program(rt)
        sim.schedule(0.01, lambda: rt.submit_leave(2, grace=60.0))
        res = rt.run(prog)
        assert res.adaptations == 1
        assert app.verify(rtol=1e-7, atol=1e-9)
        assert res.traffic.dropped > 0
