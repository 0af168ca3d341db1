"""Fan-out waves: ``transmit_flight`` / ``send_fanout`` (PROTOCOL.md §13).

A wave is a loop over ``Switch.transmit``: the error contract of that
loop (a dark or unknown destination, a detached sender — per leg) and
the dsm-level sentence ``send_fanout(legs)`` ==
``[proc.send(*leg) for leg in legs]`` are pinned here.  Bitwise identity
of whole runs is the golden matrix's job.
"""

import pytest

from repro.config import NetworkParams
from repro.errors import NetworkError
from repro.network import Message, Switch
from repro.simcore import Simulator

from ..helpers import build_system


def _link_state(switch):
    return {
        link.name: (link.busy_until, link.busy_time,
                    link.bytes_carried, link.messages_carried)
        for link in switch.iter_links()
    }


def _stats_state(switch):
    snap = switch.stats.snapshot()
    return (
        snap.messages, snap.bytes, snap.pages, snap.diffs,
        list(snap.by_kind_messages.items()),
        list(snap.by_kind_bytes.items()),
        list(snap.per_link_bytes.items()),
    )


def _queue_state(sim):
    return [(t, prio, seq) for t, prio, seq, _ev in sim._queue._heap]


def _star(n=4):
    sim = Simulator()
    switch = Switch(sim, NetworkParams())
    nics = [switch.attach(i) for i in range(n)]
    return sim, switch, nics


class TestFlightErrors:
    def test_unknown_destination_raises_without_handler(self):
        sim, switch, nics = _star(2)
        msgs = [Message("d", src=0, dst=1, size_bytes=8),
                Message("d", src=0, dst=9, size_bytes=8)]
        with pytest.raises(NetworkError):
            switch.transmit_flight(msgs)
        # The first leg already flew — same as the sequential loop.
        assert switch.stats.snapshot().messages == 1

    def test_on_error_reports_and_remaining_legs_fly(self):
        sim, switch, nics = _star(4)
        switch.detach(2)
        seen = []
        msgs = [Message("d", src=0, dst=1, size_bytes=8),
                Message("d", src=0, dst=2, size_bytes=8),
                Message("d", src=0, dst=3, size_bytes=8)]
        switch.transmit_flight(msgs, on_error=lambda m, e: seen.append(m.dst))
        assert seen == [2]
        assert switch.stats.snapshot().messages == 2

    def test_detached_src_nic_checked_per_leg(self):
        sim, switch, nics = _star(3)
        switch.detach(0)
        seen = []
        msgs = [Message("d", src=0, dst=1, size_bytes=8),
                Message("d", src=0, dst=2, size_bytes=8)]
        switch.transmit_flight(msgs, on_error=lambda m, e: seen.append(m.dst),
                               src_nic=nics[0])
        assert seen == [1, 2]
        assert switch.stats.snapshot().messages == 0


def _state_after(fanout, legs, dark, hooked):
    """Send ``legs`` from the master of a fresh 4-process system, as one
    ``send_fanout`` or as one ``send`` per leg; pid 2 is dark if asked."""
    sim, runtime, _pool = build_system(nprocs=4, materialized=False)
    master, switch = runtime.master, runtime.switch
    reported = []
    if dark:
        switch.detach(runtime.team.node_of(2))
    if hooked:
        master.crash_hook = lambda node, err: reported.append(node)
    try:
        if fanout:
            master.send_fanout(legs)
        else:
            for leg in legs:
                master.send(*leg)
    except NetworkError:
        reported.append("raised")
    return (reported, _link_state(switch), _stats_state(switch),
            _queue_state(sim))


class TestFanoutIsALoopOfSends:
    def test_send_fanout_equals_per_leg_sends(self):
        wave = [("fork", pid, None, 100 * pid) for pid in (1, 2, 3)]
        for legs, dark, hooked, messages in [
            (wave[:1], False, False, 1),
            (wave, False, False, 3),
            (wave, True, True, 2),    # the hook hears of pid 2, pid 3 still flies
            (wave, True, False, 1),   # no hook: pid 2 raises, pid 3 never flies
        ]:
            as_wave = _state_after(True, legs, dark, hooked)
            assert as_wave == _state_after(False, legs, dark, hooked)
            reported, _links, stats, _queue = as_wave
            assert stats[0] == messages
            assert len(reported) == (1 if dark else 0)
