"""Tests for channels, resources and random streams."""

import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Channel, RandomStreams, Resource, Simulator, substream_seed


class TestChannel:
    def test_put_then_recv(self):
        sim = Simulator()
        chan = Channel(sim)
        got = []

        def receiver():
            msg = yield chan.recv()
            got.append((sim.now, msg))

        chan.put("hello")
        sim.process(receiver())
        sim.run()
        assert got == [(0.0, "hello")]

    def test_recv_blocks_until_put(self):
        sim = Simulator()
        chan = Channel(sim)
        got = []

        def receiver():
            msg = yield chan.recv()
            got.append((sim.now, msg))

        def sender():
            yield sim.timeout(4.0)
            chan.put("late")

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got == [(4.0, "late")]

    def test_fifo_order_multiple_messages(self):
        sim = Simulator()
        chan = Channel(sim)
        got = []

        def receiver():
            for _ in range(3):
                msg = yield chan.recv()
                got.append(msg)

        for i in range(3):
            chan.put(i)
        sim.process(receiver())
        sim.run()
        assert got == [0, 1, 2]

    def test_matching_recv_skips_non_matching(self):
        sim = Simulator()
        chan = Channel(sim)
        got = []

        def receiver():
            msg = yield chan.recv(match=lambda m: m % 2 == 0)
            got.append(msg)

        chan.put(1)
        chan.put(3)
        chan.put(4)
        sim.process(receiver())
        sim.run()
        assert got == [4]
        assert chan.try_recv() == 1
        assert chan.try_recv() == 3

    def test_matching_put_wakes_correct_waiter(self):
        sim = Simulator()
        chan = Channel(sim)
        got = []

        def waiter(tag):
            msg = yield chan.recv(match=lambda m, tag=tag: m[0] == tag)
            got.append(msg)

        sim.process(waiter("b"))
        sim.process(waiter("a"))

        def sender():
            yield sim.timeout(1.0)
            chan.put(("a", 1))
            chan.put(("b", 2))

        sim.process(sender())
        sim.run()
        assert sorted(got) == [("a", 1), ("b", 2)]

    def test_try_recv_empty_returns_none(self):
        sim = Simulator()
        chan = Channel(sim)
        assert chan.try_recv() is None

    def test_len(self):
        sim = Simulator()
        chan = Channel(sim)
        chan.put(1)
        chan.put(2)
        assert len(chan) == 2


class TestResource:
    def test_mutual_exclusion_serializes(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        spans = []
        for i in range(3):
            cpu.hold(1.0, lambda hold: spans.append((hold.msg, sim.now - 1.0, sim.now)), i)
        sim.run()
        assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]

    def test_capacity_two_allows_overlap(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        ends = []
        for _ in range(4):
            res.hold(1.0, lambda hold: ends.append(sim.now))
        sim.run()
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_hold_is_one_event_and_has_no_grant_window(self):
        sim = Simulator()
        cpu = Resource(sim)
        done = []
        hold = cpu.hold(2.0, done.append, "msg", "state")
        assert cpu.in_use == 1 and len(sim._queue) == 1  # already in service
        sim.run()
        assert done == [hold] and (hold.msg, hold.state) == ("msg", "state")
        assert sim.events_executed == 1 and sim.now == 2.0 and cpu.in_use == 0


#: One use of the resource: (arrival slot, duration, slots until cancelled
#: or None).  Use ``i`` arrives ``i/64`` into its slot, durations are whole
#: numbers and cancellations fall on the halves, so no two of arrival,
#: grant and cancellation coincide.
USE = st.tuples(st.integers(0, 6), st.integers(0, 3), st.none() | st.integers(0, 8))


def _run_uses(uses, capacity):
    """Run ``uses`` as holds; returns ({use: end time}, resource) with the
    uncancelled (or cancelled too late) uses' completion times."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    ends = {}

    def arrive(i, duration, cancel_after):
        hold = res.hold(float(duration),
                        lambda hold: ends.__setitem__(hold.msg, sim.now), i)
        if cancel_after is not None:
            sim.schedule(cancel_after + 0.5, hold.cancel)

    for i, (slot, *use) in enumerate(uses):
        sim.at(slot + i / 64, lambda i=i, use=use: arrive(i, *use))
    sim.run()
    return ends, res


def _fifo_model(uses, capacity):
    """The same program's completion times, worked out by hand: uses start
    in arrival order, each at ``max(arrival, earliest unit free)``; one
    cancelled while queued never starts, one cancelled in service gives
    its unit back then and never ends."""
    free = [0.0] * capacity  # a heap of the times the units come free
    ends = {}
    for i in sorted(range(len(uses)), key=lambda i: (uses[i][0], i)):
        slot, duration, cancel_after = uses[i]
        arrival = slot + i / 64
        cancel = math.inf if cancel_after is None else arrival + (cancel_after + 0.5)
        start = max(arrival, free[0])
        if cancel < start:
            continue
        end = start + float(duration)
        heapq.heapreplace(free, min(end, cancel))
        if end < cancel:
            ends[i] = end
    return ends


@settings(max_examples=300, deadline=None)
@given(uses=st.lists(USE, max_size=12), capacity=st.sampled_from([1, 2]))
def test_holds_share_one_fifo_on_generated_programs(uses, capacity):
    """Holds cancelled while queued, in service and after completion: every
    use completes when the FIFO model says, and nothing leaks."""
    ends, res = _run_uses(uses, capacity)
    assert ends == _fifo_model(uses, capacity)
    assert res.in_use == 0 and not res._queue


class TestRandomStreams:
    def test_substreams_are_independent(self):
        streams = RandomStreams(123)
        a1 = streams.stream("a").random(5).tolist()
        streams2 = RandomStreams(123)
        _ = streams2.stream("b").random(100)  # consume another stream heavily
        a2 = streams2.stream("a").random(5).tolist()
        assert a1 == a2

    def test_different_names_differ(self):
        assert substream_seed(1, "x") != substream_seed(1, "y")

    def test_different_seeds_differ(self):
        assert substream_seed(1, "x") != substream_seed(2, "x")

    def test_uniform_in_range(self):
        streams = RandomStreams(7)
        for _ in range(100):
            u = streams.uniform("u")
            assert 0.0 <= u < 1.0
