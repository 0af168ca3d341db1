"""Seeded chaos harness: the engine survives what the plan throws at it.

Acceptance for the resilience layer.  Under a deterministic fault plan
(worker kills, hangs past the deadline, pool-level degradation) a chaos
sweep must return results bitwise-identical to the fault-free serial
baseline; an unsurvivable plan must end in an *attributed*
:class:`TaskFailure`, never a bare traceback.

Each spec spawns real worker processes (interpreter + numpy import is
around a second), so the scenarios here are tiny and few.
"""

import pytest

from repro.errors import ExecError
from repro.exec import ScenarioSpec
from repro.exec.chaos import CHAOS_ENV, ChaosPlan, run_chaos
from repro.exec.pool import run_specs
from repro.exec.supervisor import (
    DeadlinePolicy,
    ResourceExhausted,
    RetryPolicy,
    SupervisorPolicy,
    WorkerCrash,
)
from repro.obs import Registry


def tiny_specs(count=2, n=32, iterations=2):
    return [
        ScenarioSpec(kernel="jacobi", params={"n": n, "iterations": iterations},
                     nprocs=2, seed=4000 + k,
                     label=f"chaos{k}")
        for k in range(count)
    ]


def arm(monkeypatch, tmp_path, plan: ChaosPlan) -> None:
    """Point workers at ``plan`` for the duration of the test."""
    path = plan.write(tmp_path / "plan.json")
    monkeypatch.setenv(CHAOS_ENV, str(path))


class TestChaosPlan:
    def test_round_trips_through_json(self, tmp_path):
        plan = ChaosPlan(seed=3, kill_rate=0.5, hang_rate=0.1,
                         slow_rate=0.25, hang_seconds=7.0)
        path = plan.write(tmp_path / "p.json")
        assert ChaosPlan.load(path) == plan

    def test_decisions_are_deterministic(self):
        plan = ChaosPlan(seed=5, kill_rate=0.5, slow_rate=0.5)
        for attempt in (1, 2, 3):
            assert plan.decide("d" * 16, attempt) == plan.decide("d" * 16, attempt)

    def test_kills_are_capped_per_task(self):
        plan = ChaosPlan(seed=0, kill_rate=1.0, max_kills_per_task=1)
        assert plan.decide("digest", 1) == ("kill", 0.0)
        assert plan.decide("digest", 2) is None  # past the cap: runs clean

    def test_kill_dominates_hang_dominates_slow(self):
        plan = ChaosPlan(seed=0, kill_rate=1.0, hang_rate=1.0, slow_rate=1.0,
                         hang_seconds=9.0, slow_seconds=0.1,
                         max_hangs_per_task=2)
        assert plan.decide("x", 1)[0] == "kill"
        assert plan.decide("x", 2) == ("hang", 9.0)  # kill cap exhausted
        assert plan.decide("x", 3) == ("slow", 0.1)  # hang cap exhausted

    def test_validate_rejects_bad_rates(self):
        with pytest.raises(ExecError):
            ChaosPlan(kill_rate=1.5).validate()
        with pytest.raises(ExecError):
            ChaosPlan(hang_seconds=-1.0).validate()

    def test_unknown_schema_rejected(self):
        with pytest.raises(ExecError):
            ChaosPlan.from_dict({"schema": "bogus/9", "seed": 0})


class TestKillRecovery:
    def test_every_task_killed_once_still_bitwise_identical(
            self, tmp_path, monkeypatch):
        specs = tiny_specs(2)
        baseline = run_specs(specs, jobs=1)
        arm(monkeypatch, tmp_path,
            ChaosPlan(seed=1, kill_rate=1.0, max_kills_per_task=1))
        obs = Registry()
        outcome = run_specs(specs, jobs=2, obs=obs)
        assert outcome.retried == 2
        assert outcome.failure_counts == {"worker_crash": 2}
        assert not outcome.degraded
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in baseline.results])
        # every task logged the crash, then the clean second attempt
        for o in outcome.outcomes:
            assert [a.outcome for a in o.attempt_log] == ["worker_crash", "ok"]
            assert o.attempts == 2
        assert obs.counter_value("exec.retry") == 2
        assert obs.counter_value("exec.failure.worker_crash") == 2

    def test_backoff_schedule_replays_with_the_seed(
            self, tmp_path, monkeypatch):
        """RESILIENCE.md §3: the delay before (digest, attempt) is a pure
        function of the retry seed — read from the coordinator's attempt
        log, identical across two runs, different under another seed."""
        specs = tiny_specs(2)
        arm(monkeypatch, tmp_path,
            ChaosPlan(seed=1, kill_rate=1.0, max_kills_per_task=1))

        def delays(seed):
            retry = RetryPolicy(max_attempts=2, base_delay=0.02, seed=seed)
            outcome = run_specs(specs, jobs=2,
                                supervisor=SupervisorPolicy(retry=retry))
            return retry, {(o.spec.config_digest(), a.attempt):
                           a.backoff_seconds
                           for o in outcome.outcomes for a in o.attempt_log}

        retry, first = delays(seed=11)
        assert first == delays(seed=11)[1]
        assert first != delays(seed=12)[1]
        for (digest, attempt), slept in first.items():
            assert slept == retry.backoff(digest, attempt)
            assert (slept > 0) == (attempt == 2)

    def test_unsurvivable_plan_fails_with_attribution(
            self, tmp_path, monkeypatch):
        spec = tiny_specs(1)[0]
        arm(monkeypatch, tmp_path,
            ChaosPlan(seed=1, kill_rate=1.0, max_kills_per_task=10))
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            degrade_after=0,  # no serial fallback: exhaust the budget
        )
        with pytest.raises(WorkerCrash, match="crashed its worker") as ei:
            run_specs([spec], jobs=2, supervisor=policy)
        assert ei.value.kind == "worker_crash"
        assert ei.value.attempts == 2
        assert ei.value.digest == spec.config_digest()


class TestHangRecovery:
    def test_hung_worker_reaped_at_deadline_and_retried(
            self, tmp_path, monkeypatch):
        spec = tiny_specs(1)[0]
        baseline = run_specs([spec], jobs=1)
        arm(monkeypatch, tmp_path,
            ChaosPlan(seed=2, hang_rate=1.0, hang_seconds=60.0,
                      max_hangs_per_task=1))
        # deadline well under the hang but far above spawn + import costs
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            deadline=DeadlinePolicy(floor_seconds=0.0, overhead_seconds=8.0,
                                    per_cost_seconds=0.0),
        )
        outcome = run_specs([spec], jobs=2, supervisor=policy)
        assert outcome.retried == 1
        assert outcome.failure_counts == {"task_timeout": 1}
        assert [a.outcome for a in outcome.outcomes[0].attempt_log] \
            == ["task_timeout", "ok"]
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in baseline.results])


class TestDegradation:
    def test_persistent_kills_degrade_to_serial_and_match(
            self, tmp_path, monkeypatch):
        specs = tiny_specs(2)
        baseline = run_specs(specs, jobs=1)
        # kills on every attempt: the pool can never win, the serial
        # fallback (in-process, no chaos injection) must finish the sweep
        arm(monkeypatch, tmp_path,
            ChaosPlan(seed=3, kill_rate=1.0, max_kills_per_task=10))
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=10, base_delay=0.01),
            degrade_after=2,
        )
        obs = Registry()
        outcome = run_specs(specs, jobs=2, supervisor=policy, obs=obs)
        assert outcome.degraded
        assert outcome.failure_counts["worker_crash"] >= 2
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in baseline.results])
        # the fallback executions are marked as such
        assert all(o.worker == -2 for o in outcome.outcomes)
        assert all(o.attempt_log[-1].detail == "serial degradation"
                   for o in outcome.outcomes)
        assert obs.counter_value("exec.degraded") == 1


@pytest.fixture
def no_processes(monkeypatch):
    """The host refuses to start workers (``OSError`` on spawn)."""
    import multiprocessing.process

    def refuse(self):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


class TestResourceExhaustion:
    """``resource_exhausted`` is charged only when the sweep has *no*
    executor at all — which takes an active plan (any plan: it keeps the
    caller from executing) on top of a host that refuses to spawn."""

    def test_caller_carries_the_sweep_when_spawn_is_refused(
            self, no_processes):
        specs = tiny_specs(3)
        outcome = run_specs(specs, jobs=2)
        assert not outcome.degraded and outcome.retried == 0
        # the refusal is recorded once (an event, however often the
        # launcher retried), and costs no task an attempt
        assert outcome.failure_counts == {"resource_exhausted": 1}
        assert all(o.worker == 0 and o.attempts == 1
                   for o in outcome.outcomes)
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in run_specs(specs, jobs=1).results])

    def test_attributed_when_the_budget_runs_out(
            self, no_processes, tmp_path, monkeypatch):
        arm(monkeypatch, tmp_path, ChaosPlan())
        spec = tiny_specs(1)[0]
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01),
            degrade_after=0)
        with pytest.raises(ResourceExhausted,
                           match="could not get a worker") as ei:
            run_specs([spec], jobs=2, supervisor=policy)
        assert ei.value.attempts == 2
        assert ei.value.digest == spec.config_digest()

    def test_degrades_to_serial_by_default(
            self, no_processes, tmp_path, monkeypatch):
        arm(monkeypatch, tmp_path, ChaosPlan())
        specs = tiny_specs(2)
        policy = SupervisorPolicy(
            retry=RetryPolicy(max_attempts=10, base_delay=0.01),
            degrade_after=2)
        outcome = run_specs(specs, jobs=2, supervisor=policy)
        assert outcome.degraded
        assert outcome.failure_counts == {"resource_exhausted": 2}
        assert all(o.worker == -2 for o in outcome.outcomes)
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in run_specs(specs, jobs=1).results])

    def test_refusal_with_a_worker_registered_charges_no_task(self):
        """The coordinator's half of the rule, on its own."""
        from repro.exec import Coordinator, Worker, submit_outcome

        with Coordinator(cache=None) as co:
            worker = Worker(co.address)
            worker.register()
            with worker:
                co.no_worker("refused while w1 is there")
                co.no_worker("and again on the launcher's next pass")
                outcome = submit_outcome(tiny_specs(1), co.address)
            assert worker.tasks_done == 1
        assert outcome.failure_counts == {"resource_exhausted": 1}
        assert outcome.retried == 0
        assert [a.outcome for a in outcome.outcomes[0].attempt_log] == ["ok"]


class TestRunChaos:
    def test_full_harness_report(self, tmp_path):
        specs = tiny_specs(2)
        plan = ChaosPlan(seed=4, kill_rate=1.0, max_kills_per_task=1)
        report = run_chaos(specs, plan, cache_root=tmp_path / "cache",
                           jobs=2, corrupt=1)
        assert report["schema"] == "repro-chaos-report/1"
        assert report["identical"] is True
        assert report["scenarios"] == 2
        assert report["chaos"]["retried"] == 2
        assert report["chaos"]["failure_counts"] == {"worker_crash": 2}
        # corruption round: one entry damaged, quarantined, re-executed
        assert len(report["corruption"]["damaged"]) == 1
        assert report["corruption"]["quarantined"] == 1
        assert report["corruption"]["re_executed"] == 1
        assert report["corruption"]["cache_hits"] == 1
        assert len(report["corruption"]["quarantine_files"]) == 1
