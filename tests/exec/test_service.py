"""Distributed sweep service: dedupe, requeue-on-death, bitwise identity.

These are the PR's acceptance tests (docs/SERVICE.md):

* 8 concurrent identical submissions cost exactly **one** execution and
  stream 8 identical reports (``exec.service.deduped == 7``);
* a sweep through the coordinator + socket workers is bitwise-identical
  to the single-host engine — including when the worker holding a task
  dies mid-sweep, or keeps heartbeating but never answers, and the task
  is requeued on a survivor.

Everything runs in-process on ephemeral ports; the "dying worker" is a
raw socket that speaks just enough protocol to lease a task and vanish.
"""

import re
import threading
import time

import pytest

from repro.errors import ExecError
from repro.exec import ResultCache, Worker, spec_from_preset
from repro.exec.pool import run_specs
from repro.exec.service import (
    Coordinator,
    count_service_obs,
    service_policy,
    service_status,
    stop_service,
    submit_outcome,
)
from repro.exec.supervisor import DeadlinePolicy, SupervisorPolicy
from repro.exec.wire import (
    WIRE_SCHEMA,
    connect,
    message,
    recv_message,
    send_message,
)
from repro.obs import Registry


def tiny_spec(nprocs=1):
    return spec_from_preset("tiny", "jacobi", nprocs, calibrated=False)


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def lease_and_die(address, leased):
    """A fake worker: register, lease one task, die without a word."""
    sock = connect(address)
    send_message(sock, message("hello", schema=WIRE_SCHEMA, role="worker",
                               host="fake", pid=1))
    assert recv_message(sock)["t"] == "welcome"
    msg = recv_message(sock)
    assert msg["t"] == "task"
    leased.append(msg)
    sock.close()


def lease_and_wedge(address, leased, release):
    """A fake worker: register, lease one task, then heartbeat forever
    without ever answering — a simulation wedged under a live process."""
    sock = connect(address)
    send_message(sock, message("hello", schema=WIRE_SCHEMA, role="worker",
                               host="wedged", pid=2))
    assert recv_message(sock)["t"] == "welcome"
    leased.append(recv_message(sock))
    try:
        while not release.wait(0.05):
            send_message(sock, message("heartbeat"))
    except ExecError:
        pass  # the coordinator dropped us: exactly what the test wants
    finally:
        sock.close()


class TestInflightDedupe:
    def test_eight_identical_submissions_execute_once(self, tmp_path):
        """The acceptance criterion: N identical concurrent submissions
        -> 1 execution, N full report streams, deduped == N-1."""
        spec = tiny_spec()
        outcomes = [None] * 8
        errors = []
        with Coordinator(cache=ResultCache(root=tmp_path / "cache")) as co:
            def client(i):
                try:
                    outcomes[i] = submit_outcome([spec], co.address)
                except Exception as err:  # pragma: no cover - fails the test
                    errors.append(err)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            # With no worker attached every submission parks: one distinct
            # digest in flight, the other seven coalesced onto it.
            assert wait_until(lambda: service_status(co.address)
                              ["counters"]["deduped"] == 7)
            status = service_status(co.address)["counters"]
            assert status["submitted"] == 8
            assert status["inflight"] == 1
            assert status["executed"] == 0
            with Worker(co.address):
                for t in threads:
                    t.join(timeout=60)
            assert not errors and all(o is not None for o in outcomes)
            final = service_status(co.address)["counters"]

        assert final["executed"] == 1
        assert final["deduped"] == 7
        assert final["failed"] == 0
        # All 8 submitters got a full, bitwise-identical report.
        local = run_specs([spec], jobs=1)
        for outcome in outcomes:
            assert len(outcome.outcomes) == 1
            assert outcome.results[0].to_json() == local.results[0].to_json()
        # The snapshot mirrors into the exec.service.* counter family.
        reg = Registry()
        count_service_obs(reg, outcomes[0].service)
        assert reg.counter_value("exec.service.deduped") == 7
        assert reg.counter_value("exec.service.executed") == 1

    def test_different_digests_are_not_deduped(self, tmp_path):
        specs = [tiny_spec(1), tiny_spec(2)]
        with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co, \
                Worker(co.address):
            outcome = submit_outcome(specs, co.address)
        assert outcome.executed == 2
        assert outcome.service["deduped"] == 0


class TestRequeueOnDeath:
    def test_worker_death_requeues_bitwise_identical(self, tmp_path):
        """A task leased by a dying worker lands on a survivor; the
        waiter never notices and the result is bitwise-identical."""
        spec = tiny_spec(4)
        leased = []
        with Coordinator(cache=ResultCache(root=tmp_path / "cache")) as co:
            fake = threading.Thread(target=lease_and_die,
                                    args=(co.address, leased))
            fake.start()
            assert wait_until(lambda: service_status(co.address)
                              ["counters"]["workers_joined"] == 1)
            box = {}
            sub = threading.Thread(
                target=lambda: box.update(o=submit_outcome([spec], co.address)))
            sub.start()
            fake.join(timeout=30)
            assert leased, "fake worker never leased the task"
            assert wait_until(lambda: service_status(co.address)
                              ["counters"]["requeued"] >= 1)
            with Worker(co.address):
                sub.join(timeout=60)
            outcome = box["o"]

        local = run_specs([spec], jobs=1)
        assert outcome.results[0].to_json() == local.results[0].to_json()
        assert outcome.retried >= 1
        assert outcome.service["requeued"] >= 1
        assert outcome.service["workers_lost"] == 1
        assert outcome.service["failure_counts"].get("worker_crash", 0) >= 1
        assert outcome.outcomes[0].worker_id  # the survivor, on record
        assert outcome.outcomes[0].attempts >= 2

    def test_heartbeating_but_wedged_worker_is_timed_out(self):
        """Heartbeats prove the process lives, not that the task moves:
        the deadline drops the wedged worker and requeues its task."""
        spec = tiny_spec(2)
        leased, release = [], threading.Event()
        policy = SupervisorPolicy(deadline=DeadlinePolicy(
            floor_seconds=0.0, overhead_seconds=0.5, per_cost_seconds=0.0))
        with Coordinator(cache=None, policy=policy) as co:
            fake = threading.Thread(target=lease_and_wedge,
                                    args=(co.address, leased, release))
            fake.start()
            try:
                assert wait_until(lambda: service_status(co.address)
                                  ["counters"]["workers_joined"] == 1)
                with Worker(co.address):  # w2: idle until the requeue
                    outcome = submit_outcome([spec], co.address)
                    table = service_status(co.address)["workers"]
            finally:
                release.set()
                fake.join(timeout=30)
        assert leased and leased[0]["attempt"] == 1
        local = run_specs([spec], jobs=1)
        assert outcome.results[0].to_json() == local.results[0].to_json()
        assert outcome.failure_counts == {"task_timeout": 1}
        assert outcome.service["requeued"] == 1
        assert [w["id"] for w in table] == ["w2"]  # the wedged one is gone
        assert [a.outcome for a in outcome.outcomes[0].attempt_log] \
            == ["task_timeout", "ok"]

    def test_attempt_budget_exhausted_surfaces_worker_crash(self):
        spec = tiny_spec()
        leased = []
        with Coordinator(cache=None, policy=service_policy(1)) as co:
            fake = threading.Thread(target=lease_and_die,
                                    args=(co.address, leased))
            fake.start()
            assert wait_until(lambda: service_status(co.address)
                              ["counters"]["workers_joined"] == 1)
            with pytest.raises(ExecError, match="worker_crash"):
                submit_outcome([spec], co.address)
            fake.join(timeout=30)
            assert service_status(co.address)["counters"]["failed"] == 1


class TestSharedCache:
    def test_second_submission_is_a_cache_hit(self, tmp_path):
        spec = tiny_spec()
        with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co, \
                Worker(co.address):
            first = submit_outcome([spec], co.address)
            second = submit_outcome([spec], co.address)
        assert first.executed == 1 and not first.outcomes[0].cached
        assert second.executed == 0 and second.outcomes[0].cached
        assert second.service["cache_hits"] == 1
        assert first.results[0].to_json() == second.results[0].to_json()

    def test_refresh_re_executes_on_a_warm_cache(self, tmp_path):
        spec = tiny_spec()
        with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co, \
                Worker(co.address):
            submit_outcome([spec], co.address)
            again = submit_outcome([spec], co.address, refresh=True)
        assert again.executed == 1 and not again.outcomes[0].cached

    def test_a_worker_executes_every_task_it_is_handed(self, tmp_path):
        """A worker has no cache of its own to answer a forced re-run
        from: what the coordinator reports as executed, ran."""
        import inspect

        from repro.exec import worker_main

        assert "cache_dir" not in inspect.signature(worker_main).parameters
        assert "cache" not in inspect.signature(Worker).parameters
        spec = tiny_spec()
        with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co, \
                Worker(co.address) as worker:
            submit_outcome([spec], co.address)
            assert worker.tasks_done == 1
            again = submit_outcome([spec], co.address, refresh=True)
            assert worker.tasks_done == 2
            assert service_status(co.address)["counters"]["executed"] == 2
        assert again.executed == 1 and not again.outcomes[0].cached


class TestIdentityAcrossWorkers:
    def test_two_worker_sweep_bitwise_identical_to_single_host(self, tmp_path):
        specs = [tiny_spec(n) for n in (1, 2, 4)]
        local = run_specs(specs, jobs=1)
        with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co, \
                Worker(co.address), Worker(co.address):
            remote = submit_outcome(specs, co.address)
        assert ([r.to_json() for r in remote.results]
                == [r.to_json() for r in local.results])
        assert [o.index for o in remote.outcomes] == [0, 1, 2]
        assert remote.executed == 3
        assert remote.service["workers"] == 2

    def test_api_submit_streams_run_reports(self, tmp_path):
        from repro.api import serve, submit

        specs = [tiny_spec(n) for n in (1, 2)]
        with serve(cache_dir=str(tmp_path / "c")) as co, Worker(co.address):
            reports = list(submit(specs, co.address))
        assert sorted(r.index for r in reports) == [0, 1]
        by_index = {r.index: r for r in reports}
        local = run_specs(specs, jobs=1)
        for i, res in enumerate(local.results):
            assert by_index[i].result.to_json() == res.to_json()
            assert by_index[i].worker_id.startswith("w")
            assert not by_index[i].cached and not by_index[i].deduped


class TestConcurrency:
    def test_more_workers_than_cores_lose_no_update(self, tmp_path):
        """Six workers and three submitters race on one coordinator with
        the interpreter switching threads 50x more often than usual: every
        distinct digest still executes exactly once, every submission is
        answered, and the counters add up."""
        import sys

        specs = [spec_from_preset("tiny", "jacobi", n, calibrated=False,
                                  seed=s) for n in (1, 2, 4) for s in range(4)]
        local = [r.to_json() for r in run_specs(specs, jobs=1).results]
        outcomes, errors = [None] * 3, []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co:
                workers = [Worker(co.address).start() for _ in range(6)]

                def client(i):
                    try:
                        outcomes[i] = submit_outcome(specs, co.address)
                    except Exception as err:  # pragma: no cover
                        errors.append(err)

                threads = [threading.Thread(target=client, args=(i,))
                           for i in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                counters = service_status(co.address)["counters"]
                for worker in workers:
                    worker.stop()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        for outcome in outcomes:
            assert [r.to_json() for r in outcome.results] == local
        assert counters["executed"] == len(specs)
        assert counters["submitted"] == 3 * len(specs)
        assert (counters["executed"] + counters["deduped"]
                + counters["cache_hits"]) == counters["submitted"]
        assert counters["requeued"] == counters["failed"] == 0
        assert counters["inflight"] == counters["queued"] == 0


class TestLifecycle:
    def test_stop_service_acknowledges_and_goes_dark(self):
        co = Coordinator(cache=None).start()
        assert stop_service(co.address) is True

        def dark():
            try:  # the ack races the handler thread's stop() by a moment
                service_status(co.address, timeout=1.0)
                return False
            except (ExecError, OSError):
                return True

        assert wait_until(dark, timeout=10.0)

    def test_wire_schema_mismatch_rejected(self):
        with Coordinator(cache=None) as co:
            sock = connect(co.address)
            try:
                send_message(sock, message("hello", schema="bogus/9",
                                           role="worker"))
                reply = recv_message(sock)
            finally:
                sock.close()
        assert reply["t"] == "error" and "schema mismatch" in reply["message"]

    def test_undecodable_submission_reports_its_reason(self):
        class NotASpec:
            def to_wire(self):
                return {"schema": "bogus/9"}

        with Coordinator(cache=None) as co:
            with pytest.raises(ExecError, match="undecodable submission"):
                submit_outcome([NotASpec()], co.address)

    def test_code_salt_mismatch_rejected(self):
        """A worker running different model sources may not feed the
        shared cache: refused exactly like a wire-schema mismatch."""
        with Coordinator(cache=None) as co:
            sock = connect(co.address)
            try:
                send_message(sock, message("hello", schema=WIRE_SCHEMA,
                                           role="worker", salt="other-code"))
                reply = recv_message(sock)
            finally:
                sock.close()
            assert service_status(co.address)["workers"] == []
        assert reply["t"] == "error" and "salt mismatch" in reply["message"]

    def test_status_lists_registered_workers(self):
        with Coordinator(cache=None) as co, Worker(co.address):
            assert wait_until(lambda: service_status(co.address)["workers"])
            table = service_status(co.address)["workers"]
        assert table[0]["id"] == "w1"


class TestServiceCLI:
    def test_submit_and_workers_status_commands(self, tmp_path, capsys):
        """``submit`` is ``sweep --coordinator``: one table, one summary,
        one JSON writer — so ``report --sweep`` reads what really ran."""
        import json

        from repro.cli import main

        grid = ["--apps", "jacobi", "--nodes", "1,2", "--preset", "tiny",
                "--uncalibrated"]
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        with Coordinator(cache=ResultCache(root=tmp_path / "c")) as co, \
                Worker(co.address):
            assert wait_until(lambda: service_status(co.address)["workers"])
            rc = main(["submit", "--coordinator", co.address, *grid,
                       "--json", str(cold)])
            out = capsys.readouterr()
            assert rc == 0
            assert "jacobi" in out.out and "w1 " in out.out  # the via column
            assert "0 from cache, 2 executed" in out.err
            assert "deduped=0" in out.err
            rc = main(["sweep", "--coordinator", co.address, *grid,
                       "--json", str(warm)])
            assert rc == 0
            assert "2 from cache, 0 executed" in capsys.readouterr().err
            rc = main(["workers", "--status", "--coordinator", co.address])
            out = capsys.readouterr()
            assert rc == 0
            assert "w1" in out.out and "executed" in out.out
        first, again = json.loads(cold.read_text()), json.loads(warm.read_text())
        assert first["executed"] == 2 and again["executed"] == 0
        assert first["service"]["workers"] == 1
        assert ([s["result"] for s in first["scenarios"]]
                == [s["result"] for s in again["scenarios"]])
        assert [s["worker"] for s in first["scenarios"]] == ["w1", "w1"]
        assert main(["report", "--sweep", str(cold)]) == 0
        assert re.search(r"^ *executed +2$", capsys.readouterr().out, re.M)
