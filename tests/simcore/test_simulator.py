"""Tests for the discrete-event engine: scheduling, ordering, clock."""

import contextlib
import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.simcore import LATE, NORMAL, URGENT, Simulator, cancel

from ..helpers import collected_so_far


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, lambda: seen.append("b"))
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(3.0, lambda: seen.append("c"))
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: seen.append(i))
    sim.run()
    assert seen == list(range(10))


def test_priority_overrides_insertion_order():
    from repro.simcore import URGENT

    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append("normal"))
    sim.schedule(1.0, lambda: seen.append("urgent"), priority=URGENT)
    sim.run()
    assert seen == ["urgent", "normal"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.now == 2.0
    sim.run()
    assert sim.now == 5.0


def test_run_until_past_last_event_advances_clock():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_event_cancellation():
    sim = Simulator()
    seen = []
    ev = sim.schedule(1.0, lambda: seen.append("x"))
    cancel(ev)
    sim.run()
    assert seen == []


def test_nested_scheduling_from_event():
    sim = Simulator()
    seen = []

    def outer():
        seen.append(("outer", sim.now))
        sim.schedule(1.0, lambda: seen.append(("inner", sim.now)))

    sim.schedule(1.0, outer)
    sim.run()
    assert seen == [("outer", 1.0), ("inner", 2.0)]


def test_step_executes_one_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(1))
    sim.schedule(2.0, lambda: seen.append(2))
    assert sim.step()
    assert seen == [1]
    assert sim.step()
    assert not sim.step()


PRIORITIES = st.sampled_from([URGENT, NORMAL, LATE])
#: An instruction run inside a parent action: ("push", delay slot,
#: priority), or ("cancel", _, _), which cancels the most recent push.
CHILD = st.tuples(st.sampled_from(["push", "cancel"]), st.integers(0, 2),
                  PRIORITIES)
#: A root event: (time slot, priority, children).
ROOT = st.tuples(st.integers(0, 3), PRIORITIES, st.lists(CHILD, max_size=2))


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(ROOT, max_size=25),
       until=st.none() | st.sampled_from([0.0, 0.5, 0.75, 1.5]))
def test_event_order_contract_on_generated_programs(ops, until):
    """The engine against a model of its contract, over random programs
    (same-time cascades, URGENT pushes at ``now``, in-place cancellation,
    ``until`` horizons): each executed event is the least ``(time,
    priority, push order)`` among the live pending ones."""
    sim = Simulator()
    pushes = itertools.count()
    pending = {}  # label -> (time, priority, push number); live events only
    pushed = []  # (label, event), most recent last
    ran = []  # the time of each executed event

    def push(label, time, priority, children):
        def action():
            assert label in pending, "a cancelled event ran"
            assert pending[label] == min(pending.values())
            assert sim.now == pending.pop(label)[0]
            ran.append(sim.now)
            for j, (kind, delay_slot, prio) in enumerate(children):
                if kind == "push":
                    push(f"{label}.{j}", sim.now + delay_slot * 0.25, prio, [])
                elif pushed:
                    victim, ev = pushed.pop()
                    cancel(ev)
                    pending.pop(victim, None)

        pending[label] = (time, priority, next(pushes))
        pushed.append((label, sim.at(time, action, priority)))

    for i, (slot, prio, children) in enumerate(ops):
        push(f"r{i}", slot * 0.5, prio, children)
    final = sim.run(until=until, check_deadlock=False)
    assert final == sim.now
    if until is None:
        # a cancelled event, however late, has not moved the clock
        assert final == max([0.0] + ran)
    else:
        assert final == until
        assert all(time <= until for time in ran)
        assert all(time > until for time, _, _ in pending.values())
        sim.run(check_deadlock=False)
    assert not pending
    assert sim.events_executed == len(ran)


class TestProcesses:
    def test_process_timeout_sequence(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield sim.timeout(1.5)
            times.append(sim.now)
            yield sim.timeout(0.5)
            times.append(sim.now)

        sim.process(proc(), name="p")
        sim.run()
        assert times == [0.0, 1.5, 2.0]

    def test_process_return_value_via_join(self):
        sim = Simulator()
        result = []

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent():
            value = yield sim.process(child(), name="child")
            result.append(value)

        sim.process(parent(), name="parent")
        sim.run()
        assert result == [42]

    def test_join_already_finished_process(self):
        sim = Simulator()
        result = []

        def child():
            return "done"
            yield  # pragma: no cover

        def parent():
            proc = sim.process(child(), name="child")
            yield sim.timeout(5.0)
            value = yield proc
            result.append((sim.now, value))

        sim.process(parent(), name="parent")
        sim.run()
        assert result == [(5.0, "done")]

    def test_signal_broadcast_to_multiple_waiters(self):
        sim = Simulator()
        sig = sim.signal("go")
        woken = []

        def waiter(i):
            value = yield sig
            woken.append((i, sim.now, value))

        for i in range(3):
            sim.process(waiter(i), name=f"w{i}")

        def firer():
            yield sim.timeout(2.0)
            sig.fire("payload")

        sim.process(firer(), name="firer")
        sim.run()
        assert woken == [(0, 2.0, "payload"), (1, 2.0, "payload"), (2, 2.0, "payload")]

    def test_signal_fire_twice_is_error(self):
        sim = Simulator()
        sig = sim.signal()
        sig.fire()
        with pytest.raises(SimulationError):
            sig.fire()

    def test_wait_on_already_fired_signal(self):
        sim = Simulator()
        sig = sim.signal()
        sig.fire(7)
        got = []

        def waiter():
            v = yield sig
            got.append(v)

        sim.process(waiter())
        sim.run()
        assert got == [7]

    def test_process_exception_propagates_from_run(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.process(bad(), name="bad")
        with pytest.raises(SimulationError) as exc:
            sim.run()
        assert isinstance(exc.value.__cause__, ValueError)

    def test_yield_non_waitable_is_error(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad(), name="bad")
        with pytest.raises(SimulationError):
            sim.run()

    def test_deadlock_detection(self):
        sim = Simulator()

        def stuck():
            yield sim.signal("never")

        sim.process(stuck(), name="stuck")
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run()

    def test_daemon_process_does_not_deadlock(self):
        sim = Simulator()

        def stuck():
            yield sim.signal("never")

        sim.process(stuck(), name="bg", daemon=True)
        sim.run()  # no error

    def test_determinism_across_runs(self):
        def build():
            sim = Simulator()
            log = []

            def worker(i):
                for k in range(3):
                    yield sim.timeout(0.5 * (i + 1))
                    log.append((sim.now, i, k))

            for i in range(4):
                sim.process(worker(i), name=f"w{i}")
            sim.run()
            return log

        assert build() == build()

    def test_request_reply_round_trips_leave_nothing_for_the_cyclic_collector(self):
        """Finished processes, holds and reply waits are freed by reference
        count: a run's garbage must not grow with its request count."""
        from repro.network import Message, Switch
        from repro.simcore import Resource

        sim = Simulator()
        switch = Switch(sim)
        nics = [switch.attach(i) for i in range(2)]
        cpu = Resource(sim)
        served = []

        def reply(hold):
            served.append(hold.msg.req_id)
            nics[1].send(hold.msg.reply("pong", size_bytes=8))

        class Server:
            pid = None

            def take(self, msg):
                cpu.hold(50e-6, reply, msg)

        nics[1].serve(Server())

        def client():
            for _ in range(4):
                yield nics[0].request(Message("ping", src=0, dst=1, size_bytes=8))

        gc.collect()
        before = collected_so_far()
        for i in range(25):
            sim.process(client(), name=f"c{i}")
        sim.run()
        assert len(served) == 100
        gc.collect()
        assert collected_so_far() == before


@pytest.fixture
def collector_setting():
    """Restore the collector setting the test started with."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("ending", ["drain", "until", "raises", "deadlock"])
def test_run_pauses_the_collector_and_restores_the_callers_setting(
    ending, enabled, collector_setting
):
    """Paused inside the loop; afterwards exactly as the caller left it,
    on every way out (a caller's ``gc.disable()`` stays in force)."""
    sim = Simulator()
    inside = []

    def proc():
        yield sim.timeout(1.0)
        inside.append(gc.isenabled())
        if ending == "raises":
            raise ValueError("boom")
        yield sim.signal("never") if ending == "deadlock" else sim.timeout(10.0)

    sim.process(proc(), name="p")
    (gc.enable if enabled else gc.disable)()
    error = {"raises": SimulationError, "deadlock": DeadlockError}.get(ending)
    with pytest.raises(error) if error else contextlib.nullcontext():
        sim.run(until=5.0 if ending == "until" else None)
    assert inside == [False]
    assert gc.isenabled() is enabled
    if ending == "until":
        assert sim.now == 5.0
