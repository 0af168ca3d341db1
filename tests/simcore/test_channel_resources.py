"""Tests for channels, stores, resources, tracer and random streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simcore import Channel, RandomStreams, Resource, Simulator, Store, substream_seed


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


class TestStore:
    def test_put_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append(item)

        store.put(99)
        sim.process(consumer())
        sim.run()
        assert got == [99]
        assert store.try_get() is None

    def test_len(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestResource:
    def test_mutual_exclusion_serializes(self):
        sim = Simulator()
        cpu = Resource(sim, capacity=1)
        spans = []

        def worker(i):
            yield cpu.acquire()
            start = sim.now
            yield sim.timeout(1.0)
            cpu.release()
            spans.append((i, start, sim.now))

        for i in range(3):
            sim.process(worker(i))
        sim.run()
        assert spans == [(0, 0.0, 1.0), (1, 1.0, 2.0), (2, 2.0, 3.0)]

    def test_capacity_two_allows_overlap(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        spans = []

        def worker(i):
            yield res.acquire()
            start = sim.now
            yield sim.timeout(1.0)
            res.release()
            spans.append((i, start))

        for i in range(4):
            sim.process(worker(i))
        sim.run()
        starts = [s for _, s in spans]
        assert starts == [0.0, 0.0, 1.0, 1.0]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_kill_inside_the_grant_window_returns_the_unit(self):
        """Granted, resume not yet run: the generator is closed at the
        ``yield`` *before* its ``try``, so only the waitable can know."""
        sim = Simulator()
        cpu = Resource(sim)

        def worker():
            yield cpu.acquire()
            try:
                yield sim.timeout(1.0)
            finally:
                cpu.release()

        first = sim.process(worker())
        sim.step()  # first step: acquire subscribed, unit granted
        assert cpu.in_use == 1
        first.kill()
        assert cpu.in_use == 0
        second = sim.process(worker())
        sim.run()
        assert not second.alive and sim.now == 1.0 and cpu.in_use == 0

    def test_hold_is_one_event_and_has_no_grant_window(self):
        sim = Simulator()
        cpu = Resource(sim)
        done = []
        hold = cpu.hold(2.0, done.append, "msg", "state")
        assert cpu.in_use == 1 and len(sim._queue) == 1  # already in service
        sim.run()
        assert done == [hold] and (hold.msg, hold.state) == ("msg", "state")
        assert sim.events_executed == 1 and sim.now == 2.0 and cpu.in_use == 0


#: One use of the resource: (arrival slot, duration, callback form?,
#: slots until cancelled or None).  Use ``i`` arrives ``i/64`` into its
#: slot (a process reaches the queue one event after it is spawned, so
#: same-instant arrivals of the two forms have no common order to test),
#: durations are whole numbers and cancellations fall on the halves, so no
#: cancellation ties with a grant either.
USE = st.tuples(st.integers(0, 6), st.integers(0, 3), st.booleans(),
                st.none() | st.integers(0, 8))


def _run_uses(uses, capacity, all_generators):
    """Run ``uses``; returns ({use: end time}, resource) with the
    uncancelled (or cancelled too late) uses' completion times."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    ends = {}

    def worker(i, duration):
        yield res.acquire()
        try:
            yield sim.timeout(float(duration))
        finally:
            res.release()
        ends[i] = sim.now

    def arrive(i, duration, as_hold, cancel_after):
        if as_hold and not all_generators:
            hold = res.hold(float(duration),
                            lambda hold: ends.__setitem__(hold.msg, sim.now), i)
            cancel = hold.cancel
        else:
            cancel = sim.process(worker(i, duration), name=f"w{i}").kill
        if cancel_after is not None:
            sim.schedule(cancel_after + 0.5, cancel)

    for i, (slot, *use) in enumerate(uses):
        sim.at(slot + i / 64, lambda i=i, use=use: arrive(i, *use))
    sim.run()
    return ends, res


@settings(max_examples=300, deadline=None)
@given(uses=st.lists(USE, max_size=12), capacity=st.sampled_from([1, 2]))
def test_holds_and_acquirers_share_one_fifo_on_generated_programs(uses, capacity):
    """Callback holds mixed with generator acquirers, cancelled while
    queued, in service and after completion: every use completes when it
    does in the all-generator run of the same program (``kill`` standing
    for ``cancel``), service starts in arrival order, nothing leaks."""
    mixed, res = _run_uses(uses, capacity, all_generators=False)
    reference, ref_res = _run_uses(uses, capacity, all_generators=True)
    assert mixed == reference
    assert res.in_use == ref_res.in_use == 0
    assert not res._queue and not ref_res._queue
    arrival_order = sorted(mixed, key=lambda i: (uses[i][0], i))
    starts = [mixed[i] - uses[i][1] for i in arrival_order]
    assert starts == sorted(starts)


class TestTracer:
    def test_disabled_by_default(self):
        sim = Simulator()
        sim.tracer.emit("cat", "subj")
        assert sim.tracer.records == []

    def test_records_time_and_filtering(self):
        sim = Simulator(trace=True)

        def proc():
            yield sim.timeout(2.0)
            sim.tracer.emit("adapt", "join", {"pid": 3})
            yield sim.timeout(1.0)
            sim.tracer.emit("adapt", "leave")
            sim.tracer.emit("dsm", "fault")

        sim.process(proc())
        sim.run()
        assert [r.time for r in sim.tracer.select(category="adapt")] == [2.0, 3.0]
        assert sim.tracer.select(subject="fault")[0].category == "dsm"
        assert sim.tracer.categories() == {"adapt", "dsm"}
        assert "join" in sim.tracer.format()


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
