"""Supervision policy unit tests: taxonomy, backoff, deadlines.

The policy layer is pure arithmetic — no processes, no clocks — so every
decision the pool makes under chaos can be checked here exactly: backoff
schedules are deterministic and bounded, deadlines never drop below the
calibrated floor, and terminal failures carry machine-readable
attribution (kind, digest, attempt count).
"""

import pytest

from repro.errors import ExecError
from repro.exec.spec import ScenarioSpec
from repro.exec.supervisor import (
    FAILURE_KINDS,
    AttemptRecord,
    CacheCorrupt,
    DeadlinePolicy,
    ResourceExhausted,
    RetryPolicy,
    SupervisorPolicy,
    TaskFailure,
    TaskTimeout,
    WorkerCrash,
    seeded_unit,
)


def spec_of(n=48, nprocs=4, **kw):
    return ScenarioSpec(kernel="jacobi", params={"n": n, "iterations": 3},
                        nprocs=nprocs, calibrated=True, **kw)


class TestSeededUnit:
    def test_deterministic_and_in_unit_interval(self):
        a = seeded_unit(7, "kill", "digest", 1)
        assert a == seeded_unit(7, "kill", "digest", 1)
        assert 0.0 <= a < 1.0

    def test_distinct_parts_decorrelate(self):
        values = {seeded_unit(0, "key", i) for i in range(32)}
        assert len(values) == 32

    def test_seed_changes_the_stream(self):
        assert seeded_unit(1, "x") != seeded_unit(2, "x")


class TestTaxonomy:
    def test_kinds_are_stable_and_distinct(self):
        classes = (WorkerCrash, TaskTimeout, CacheCorrupt, ResourceExhausted)
        assert tuple(c.kind for c in classes) == FAILURE_KINDS
        assert len(set(FAILURE_KINDS)) == len(FAILURE_KINDS)

    def test_failures_are_exec_errors_with_attribution(self):
        spec = spec_of()
        err = WorkerCrash("boom", spec=spec, attempts=3)
        assert isinstance(err, TaskFailure) and isinstance(err, ExecError)
        assert err.kind == "worker_crash"
        assert err.digest == spec.config_digest()
        assert err.attempts == 3
        assert err.spec is spec

    def test_failure_without_spec_has_empty_digest(self):
        err = TaskTimeout("late")
        assert err.digest == "" and err.spec is None and err.attempts == 0


class TestAttemptRecord:
    def test_as_dict_round_trips_every_field(self):
        rec = AttemptRecord(attempt=2, outcome="worker_crash",
                            wall_seconds=1.5, worker=3, detail="exit 43",
                            backoff_seconds=0.05)
        assert rec.as_dict() == {
            "attempt": 2, "outcome": "worker_crash", "wall_seconds": 1.5,
            "worker": 3, "detail": "exit 43", "backoff_seconds": 0.05,
        }


class TestRetryPolicy:
    def test_first_attempt_never_waits(self):
        assert RetryPolicy().backoff("k", 1) == 0.0

    def test_backoff_is_deterministic_across_instances(self):
        a = RetryPolicy(seed=9).backoff("digest", 3)
        b = RetryPolicy(seed=9).backoff("digest", 3)
        assert a == b

    def test_backoff_within_jittered_exponential_envelope(self):
        pol = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=100.0,
                          jitter=0.5)
        for attempt in range(2, 8):
            nominal = 0.1 * 2.0 ** (attempt - 2)
            got = pol.backoff("k", attempt)
            assert nominal * 0.5 <= got <= nominal

    def test_backoff_saturates_at_max_delay(self):
        pol = RetryPolicy(base_delay=0.1, multiplier=10.0, max_delay=0.4,
                          jitter=0.0)
        assert pol.backoff("k", 6) == 0.4

    def test_zero_jitter_is_exact_exponential(self):
        pol = RetryPolicy(base_delay=0.05, multiplier=2.0, jitter=0.0)
        assert pol.backoff("k", 2) == pytest.approx(0.05)
        assert pol.backoff("k", 3) == pytest.approx(0.10)

    def test_distinct_tasks_desynchronize(self):
        pol = RetryPolicy(jitter=1.0)
        assert pol.backoff("task-a", 2) != pol.backoff("task-b", 2)

    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(base_delay=-1.0),
        dict(max_delay=-0.1),
        dict(jitter=1.5),
        dict(multiplier=0.5),
    ])
    def test_validate_rejects(self, bad):
        with pytest.raises(ExecError):
            RetryPolicy(**bad).validate()


class TestDeadlinePolicy:
    def test_floor_dominates_small_tasks(self):
        pol = DeadlinePolicy(floor_seconds=30.0, overhead_seconds=1.0,
                             per_cost_seconds=0.0)
        assert pol.deadline_for(spec_of()) == 30.0

    def test_deadline_scales_with_cost(self):
        pol = DeadlinePolicy(floor_seconds=0.0, overhead_seconds=1.0,
                             per_cost_seconds=1e-3)
        small = pol.deadline_for(spec_of(n=16))
        large = pol.deadline_for(spec_of(n=256))
        assert large > small > 1.0

    def test_cost_proxy_counts_nprocs_and_params(self):
        spec = spec_of(n=10, nprocs=2)
        base = DeadlinePolicy.cost_proxy(spec)
        assert base == 2 * 10 * 3  # nprocs * n * iterations
        assert DeadlinePolicy.cost_proxy(spec_of(n=10, nprocs=4)) == 2 * base

    def test_validate_rejects_negative_budgets(self):
        with pytest.raises(ExecError):
            DeadlinePolicy(floor_seconds=-1.0).validate()
        with pytest.raises(ExecError):
            DeadlinePolicy(per_cost_seconds=-1e-6).validate()


class TestSupervisorPolicy:
    def test_defaults_validate(self):
        pol = SupervisorPolicy().validate()
        assert pol.degrade_after == 3
        assert pol.retry.max_attempts == 2  # one run plus one retry

    def test_validate_is_deep(self):
        with pytest.raises(ExecError):
            SupervisorPolicy(retry=RetryPolicy(max_attempts=0)).validate()
        with pytest.raises(ExecError):
            SupervisorPolicy(degrade_after=-1).validate()
