"""End-to-end engine behaviour: determinism, caching, crash retry.

These are the PR's acceptance tests: parallel execution is
bitwise-identical to serial, a warm cache answers without executing
anything, changing any digest-relevant field forces re-execution, and a
dying worker is retried without disturbing its neighbours.
"""

import pytest

from repro.errors import ExecError
from repro.exec import ResultCache, ScenarioSpec
from repro.exec.chaos import CHAOS_ENV, ChaosPlan
from repro.exec.pool import run_spec, run_specs
from repro.exec.supervisor import RetryPolicy, SupervisorPolicy


def small_specs(count=3, n=48, iterations=3):
    """Fast, distinct-digest calibrated Jacobi scenarios."""
    return [
        ScenarioSpec(kernel="jacobi", params={"n": n, "iterations": iterations},
                     nprocs=4, calibrated=True, seed=1000 + k, label=f"s{k}")
        for k in range(count)
    ]


class TestSerialEngine:
    def test_run_spec_produces_consistent_result(self):
        result, wall = run_spec(small_specs(1)[0])
        assert result.runtime_seconds > 0
        assert result.events > 0
        assert wall > 0

    def test_results_merge_in_spec_order(self):
        specs = small_specs(3)
        outcome = run_specs(specs, jobs=1)
        assert [o.index for o in outcome.outcomes] == [0, 1, 2]
        assert [o.spec for o in outcome.outcomes] == specs

    def test_jobs_must_be_positive(self):
        with pytest.raises(ExecError):
            run_specs(small_specs(1), jobs=0)

    def test_progress_callback_streams_every_task(self):
        seen = []
        run_specs(small_specs(2), jobs=1,
                  progress=lambda o, done, total: seen.append((o.index, done, total)))
        assert seen == [(0, 1, 2), (1, 2, 2)]


class TestParallelIdentity:
    def test_jobs2_bitwise_identical_to_serial(self):
        specs = small_specs(3)
        serial = run_specs(specs, jobs=1)
        parallel = run_specs(specs, jobs=2)
        assert ([r.to_json() for r in serial.results]
                == [r.to_json() for r in parallel.results])
        assert parallel.jobs == 2
        assert parallel.executed == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_specs_in_one_sweep_run_once(self, tmp_path, jobs):
        """Specs that share a digest are coalesced before the ``jobs``
        branch: [s, s, t] is two simulations, three outcomes, whatever
        ``jobs`` is."""
        s = small_specs(1)[0]
        t = s.replaced(nprocs=2)
        cache = ResultCache(root=tmp_path)
        seen = []
        outcome = run_specs([s, s, t], jobs=jobs, cache=cache,
                            progress=lambda o, done, total: seen.append(done))
        assert [o.index for o in outcome.outcomes] == [0, 1, 2]
        assert [o.spec for o in outcome.outcomes] == [s, s, t]
        first, twin, other = (r.to_json() for r in outcome.results)
        assert first == twin != other
        assert [o.deduped for o in outcome.outcomes] == [False, True, False]
        assert outcome.executed == 2
        assert outcome.cache_stats.stores == 2
        assert seen == [1, 2, 3]
        assert [first, other] == [r.to_json()
                                  for r in run_specs([s, t], jobs=1).results]


class TestCaching:
    def test_warm_cache_executes_nothing(self, tmp_path):
        specs = small_specs(3)
        cache = ResultCache(root=tmp_path)
        cold = run_specs(specs, jobs=1, cache=cache)
        assert cold.executed == 3 and cold.cache_hits == 0

        warm_cache = ResultCache(root=tmp_path)
        warm = run_specs(specs, jobs=1, cache=warm_cache)
        assert warm.executed == 0
        assert warm.cache_hits == len(specs)  # hits == task count
        assert warm_cache.stats.hits == len(specs)
        assert ([r.to_json() for r in cold.results]
                == [r.to_json() for r in warm.results])
        # cached outcomes replay the stored wall time without running
        assert all(o.attempts == 0 for o in warm.outcomes)

    def test_digest_relevant_change_forces_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        spec = small_specs(1)[0]
        run_specs([spec], jobs=1, cache=cache)
        again = run_specs([spec.replaced(nprocs=8)], jobs=1,
                          cache=ResultCache(root=tmp_path))
        assert again.executed == 1 and again.cache_hits == 0

    def test_refresh_re_executes_and_restores(self, tmp_path):
        spec = small_specs(1)[0]
        cache = ResultCache(root=tmp_path)
        run_specs([spec], jobs=1, cache=cache)
        refreshed = run_specs([spec], jobs=1,
                              cache=ResultCache(root=tmp_path), refresh=True)
        assert refreshed.executed == 1 and refreshed.cache_hits == 0

    def test_version_salt_change_invalidates(self, tmp_path):
        spec = small_specs(1)[0]
        run_specs([spec], jobs=1, cache=ResultCache(root=tmp_path, salt="old"))
        stale = ResultCache(root=tmp_path, salt="new")
        outcome = run_specs([spec], jobs=1, cache=stale)
        assert outcome.executed == 1
        assert stale.stats.invalidations == 1


def crash_once(monkeypatch, tmp_path) -> None:
    """Every worker hard-exits the first time it is handed each task."""
    plan = ChaosPlan(kill_rate=1.0, max_kills_per_task=1)
    monkeypatch.setenv(CHAOS_ENV, str(plan.write(tmp_path / "plan.json")))


class TestCrashRetry:
    def test_worker_crash_is_retried_and_results_identical(self, tmp_path, monkeypatch):
        specs = small_specs(2)
        baseline = run_specs(specs, jobs=1)

        crash_once(monkeypatch, tmp_path)
        outcome = run_specs(specs, jobs=2)
        assert outcome.retried == 2  # each worker died once, then succeeded
        assert all(o.attempts == 2 for o in outcome.outcomes)
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in baseline.results])

    def test_persistent_crash_exhausts_retries(self, tmp_path, monkeypatch):
        spec = small_specs(1)[0]
        crash_once(monkeypatch, tmp_path)
        with pytest.raises(ExecError, match="crashed its worker"):
            run_specs([spec], jobs=2, supervisor=SupervisorPolicy(
                retry=RetryPolicy(max_attempts=1)))

    def test_worker_exception_propagates_with_traceback(self):
        bad = ScenarioSpec(kernel="jacobi", params={"n": 2, "iterations": 1},
                           nprocs=4, calibrated=True)
        with pytest.raises(ExecError, match="failed in its worker"):
            run_specs([bad], jobs=2)
