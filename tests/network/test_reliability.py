"""Tests for message loss and request retransmission."""

import numpy as np
import pytest

from repro.apps import TINY
from repro.config import NetworkParams, SystemConfig
from repro.errors import NetworkError
from repro.network import DATA_PLANE, LossModel, Message, Switch
from repro.network.message import PAGE_REQ
from repro.simcore import Simulator

from ..helpers import build_adaptive, build_system


class TestLossModel:
    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            LossModel(rate=1.0)
        with pytest.raises(ValueError):
            LossModel(rate=-0.1)

    def test_zero_rate_never_drops(self):
        model = LossModel(rate=0.0)
        msg = Message(PAGE_REQ, src=0, dst=1)
        assert not any(model.should_drop(msg) for _ in range(100))

    def test_control_plane_never_dropped(self):
        model = LossModel(rate=0.99)
        msg = Message("fork", src=0, dst=1)
        assert not any(model.should_drop(msg) for _ in range(100))
        assert model.dropped == 0

    def test_data_plane_dropped_at_rate(self):
        model = LossModel(rate=0.3, seed=1)
        msg = Message(PAGE_REQ, src=0, dst=1)
        drops = sum(model.should_drop(msg) for _ in range(2000))
        assert 450 <= drops <= 750
        assert model.dropped == drops

    def test_deterministic_given_seed(self):
        def sequence(seed):
            model = LossModel(rate=0.5, seed=seed)
            msg = Message(PAGE_REQ, src=0, dst=1)
            return [model.should_drop(msg) for _ in range(50)]

        assert sequence(3) == sequence(3)
        assert sequence(3) != sequence(4)


class TestRetransmission:
    def _net(self, loss_rate):
        sim = Simulator()
        switch = Switch(sim, NetworkParams(loss_rate=loss_rate))
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
        assert switch.loss.dropped > 0

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

    def test_unreachable_peer_times_out(self):
        sim, switch, nics = self._net(0.2)
        # no server: requests to node 1 are consumed by nobody -> inbox fills,
        # replies never come; detach to make sends fail outright
        failures = []

        def client():
            try:
                yield nics[0].request(Message(PAGE_REQ, src=0, dst=1, size_bytes=8))
            except NetworkError as err:
                failures.append(str(err))

        switch.detach(1)
        with pytest.raises(NetworkError):
            # the very first send already fails on a detached node
            sim.process(client()), sim.run()
            nics[0].send(Message(PAGE_REQ, src=0, dst=1))


class TestLossyDsmRuns:
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_kernels_verify_under_loss(self, name):
        cfg = SystemConfig(network=NetworkParams(loss_rate=0.10))
        sim, rt, pool = build_system(nprocs=4, cfg=cfg)
        app = TINY[name].make()
        rt.run(app.program(rt))
        assert app.verify(rtol=1e-7, atol=1e-9), f"{name} diverged under loss"

    def test_loss_costs_time_not_correctness(self):
        def runtime(rate):
            cfg = SystemConfig(network=NetworkParams(loss_rate=rate))
            sim, rt, pool = build_system(nprocs=4, cfg=cfg)
            app = TINY["gauss"].make()
            res = rt.run(app.program(rt))
            assert app.verify(rtol=1e-7, atol=1e-9)
            return res.runtime_seconds

        assert runtime(0.25) > runtime(0.0)

    def test_adaptation_under_loss(self):
        cfg = SystemConfig(network=NetworkParams(loss_rate=0.10))
        sim, rt, pool = build_adaptive(nprocs=4, cfg=cfg)
        app = TINY["jacobi"].make()
        prog = app.program(rt)
        sim.schedule(0.01, lambda: rt.submit_leave(2, grace=60.0))
        res = rt.run(prog)
        assert res.adaptations == 1
        assert app.verify(rtol=1e-7, atol=1e-9)
        assert rt.switch.loss.dropped > 0
