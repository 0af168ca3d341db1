"""Tests for the switched-Ethernet model: latency, occupancy, accounting."""

import pytest

from repro.config import NetworkParams
from repro.errors import NetworkError
from repro.network import Message, Switch
from repro.network.message import PAGE_REPLY
from repro.simcore import Simulator


def make_net(n=4, **kw):
    sim = Simulator()
    switch = Switch(sim, NetworkParams(**kw) if kw else None)
    nics = [switch.attach(i) for i in range(n)]
    return sim, switch, nics


class TestLatency:
    def test_one_byte_rtt_matches_paper(self):
        """§5.1: the round-trip latency for a 1-byte message is 126 µs."""
        sim, switch, nics = make_net(2)
        times = {}

        def client():
            reply = yield nics[0].request(Message("ping", src=0, dst=1, size_bytes=1))
            times["rtt"] = sim.now

        def server():
            msg = yield nics[1].inbox.recv()
            nics[1].send(msg.reply("pong", size_bytes=1))

        sim.process(client())
        sim.process(server())
        sim.run()
        # 126 us fixed + wire time of the 2 x 1 payload byte
        assert times["rtt"] == pytest.approx(126e-6, rel=2e-3)

    def test_payload_adds_wire_time(self):
        sim, switch, nics = make_net(2)
        arrival = switch.transmit(Message("data", src=0, dst=1, size_bytes=12500))
        # 63 us latency + 12500 B at 12.5 MB/s = 1 ms
        assert arrival == pytest.approx(63e-6 + 1e-3, rel=1e-9)

    def test_loopback_is_free_and_unaccounted(self):
        sim, switch, nics = make_net(2)
        arrival = switch.transmit(Message("data", src=1, dst=1, size_bytes=100000))
        assert arrival == 0.0
        sim.run()
        assert switch.stats.snapshot().messages == 0


class TestOccupancy:
    def test_fan_in_serializes_on_downlink(self):
        """Several senders to one receiver serialize; disjoint pairs do not."""
        sim, switch, nics = make_net(4)
        size = 125000  # 10 ms wire time
        a1 = switch.transmit(Message("d", src=0, dst=3, size_bytes=size))
        a2 = switch.transmit(Message("d", src=1, dst=3, size_bytes=size))
        a3 = switch.transmit(Message("d", src=2, dst=3, size_bytes=size))
        wire = size * 8 / 100e6
        assert a1 == pytest.approx(63e-6 + wire, rel=1e-6)
        # second and third wait for the downlink slot (header adds to occupancy)
        assert a2 > a1 + wire * 0.99
        assert a3 > a2 + wire * 0.99
        sim.run()

    def test_disjoint_pairs_parallel(self):
        sim, switch, nics = make_net(4)
        size = 125000
        a1 = switch.transmit(Message("d", src=0, dst=1, size_bytes=size))
        a2 = switch.transmit(Message("d", src=2, dst=3, size_bytes=size))
        assert a1 == pytest.approx(a2)
        sim.run()

    def test_full_duplex_no_self_contention(self):
        """A node sending does not delay what it receives (full duplex)."""
        sim, switch, nics = make_net(2)
        size = 125000
        a1 = switch.transmit(Message("d", src=0, dst=1, size_bytes=size))
        a2 = switch.transmit(Message("d", src=1, dst=0, size_bytes=size))
        assert a1 == pytest.approx(a2)
        sim.run()

    def test_uplink_serializes_sender(self):
        sim, switch, nics = make_net(3)
        size = 125000
        a1 = switch.transmit(Message("d", src=0, dst=1, size_bytes=size))
        a2 = switch.transmit(Message("d", src=0, dst=2, size_bytes=size))
        assert a2 > a1
        sim.run()


class TestRouting:
    def test_unknown_destination_raises(self):
        sim, switch, nics = make_net(2)
        with pytest.raises(NetworkError):
            switch.transmit(Message("d", src=0, dst=9))

    def test_detached_destination_raises(self):
        sim, switch, nics = make_net(2)
        switch.detach(1)
        with pytest.raises(NetworkError):
            switch.transmit(Message("d", src=0, dst=1))

    def test_send_from_detached_nic_raises(self):
        sim, switch, nics = make_net(2)
        switch.detach(0)
        with pytest.raises(NetworkError):
            nics[0].send(Message("d", src=0, dst=1))

    def test_reattach_restores_delivery(self):
        sim, switch, nics = make_net(2)
        switch.detach(1)
        switch.attach(1)
        switch.transmit(Message("d", src=0, dst=1))
        sim.run()
        assert len(nics[1].inbox) == 1

    def test_wrong_src_nic_raises(self):
        sim, switch, nics = make_net(2)
        with pytest.raises(NetworkError):
            nics[0].send(Message("d", src=1, dst=0))

    def test_replies_routed_by_req_id(self):
        sim, switch, nics = make_net(2)
        got = []
        first = Message("req", src=0, dst=1, size_bytes=1)
        second = Message("req", src=0, dst=1, size_bytes=1)
        nics[0].request(first).subscribe(lambda rep, exc: got.append(("1st", rep)))
        nics[0].request(second).subscribe(lambda rep, exc: got.append(("2nd", rep)))
        sim.run(check_deadlock=False)
        nics[1].inbox.try_recv()
        req = nics[1].inbox.try_recv()
        assert req is second
        switch.transmit(req.reply("rep"))
        sim.run(check_deadlock=False)
        assert nics[0].inbox.try_recv() is None
        [(who, rep)] = got
        assert who == "2nd" and rep.kind == "rep" and rep.req_id == second.req_id
        assert list(nics[0]._reply_waiters) == [first.req_id]

    def test_unmatched_reply_is_dropped(self):
        sim, switch, nics = make_net(2)
        switch.transmit(Message("rep", src=1, dst=0, req_id=12345, is_reply=True))
        sim.run()
        assert sim.events_executed == 1
        assert len(nics[0].inbox) == 0 and not nics[0]._reply_waiters


class TestAccounting:
    def test_message_and_byte_totals_include_headers(self):
        sim, switch, nics = make_net(3)
        switch.transmit(Message("d", src=0, dst=1, size_bytes=100))
        switch.transmit(Message("d", src=1, dst=2, size_bytes=200))
        snap = switch.stats.snapshot()
        assert snap.messages == 2
        assert snap.bytes == 100 + 200 + 2 * 42
        sim.run()

    def test_page_and_diff_counters(self):
        sim, switch, nics = make_net(2)
        switch.transmit(Message(PAGE_REPLY, src=0, dst=1, size_bytes=4096, is_reply=True, req_id=1))
        switch.transmit(
            Message("diff_reply", src=0, dst=1, size_bytes=64, is_reply=True, req_id=2,
                    payload={"n_diffs": 3})
        )
        snap = switch.stats.snapshot()
        assert snap.pages == 1
        assert snap.diffs == 3
        sim.run()

    def test_per_link_bytes_and_max_link(self):
        sim, switch, nics = make_net(3)
        switch.transmit(Message("d", src=0, dst=2, size_bytes=1000))
        switch.transmit(Message("d", src=1, dst=2, size_bytes=1000))
        snap = switch.stats.snapshot()
        assert snap.per_link_bytes["down2"] == 2 * (1000 + 42)
        assert snap.per_link_bytes["up0"] == 1042
        assert snap.max_link_bytes() == 2084
        assert snap.busiest_link() == "down2"
        sim.run()

    def test_snapshot_delta(self):
        sim, switch, nics = make_net(2)
        switch.transmit(Message("d", src=0, dst=1, size_bytes=10))
        before = switch.stats.snapshot()
        switch.transmit(Message("d", src=0, dst=1, size_bytes=20))
        delta = switch.stats.snapshot().delta(before)
        assert delta.messages == 1
        assert delta.bytes == 62
        assert delta.per_link_bytes == {"up0": 62, "down1": 62}
        sim.run()

    def test_megabytes_property(self):
        sim, switch, nics = make_net(2)
        switch.transmit(Message("d", src=0, dst=1, size_bytes=999958))
        assert switch.stats.snapshot().megabytes == pytest.approx(1.0)
        sim.run()


class TestLinkModel:
    def test_utilization(self):
        from repro.network.link import Link

        link = Link(name="l", per_byte=1e-6)
        link.reserve(0.0, 500)
        link.reserve(0.0, 500)
        assert link.busy_until == pytest.approx(1e-3)
        assert link.utilization(2e-3) == pytest.approx(0.5)

    def test_occupy_before_busy_raises(self):
        from repro.network.link import Link

        link = Link(name="l", per_byte=1e-6)
        link.occupy(0.0, 1000)
        with pytest.raises(ValueError):
            link.occupy(0.0, 1000)
