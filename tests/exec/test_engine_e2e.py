"""End-to-end engine behaviour: determinism, caching, crash retry.

These are the PR's acceptance tests: parallel execution is
bitwise-identical to serial, a warm cache answers without executing
anything, changing any digest-relevant field forces re-execution, a
dying worker is retried without disturbing its neighbours, and the caller
of a ``jobs=N`` sweep is the first of its N executors.
"""

import multiprocessing
import threading
import time

import pytest

import repro.exec.pool as pool
import repro.exec.worker as worker_module
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
        # Two misses make a pool, and the first lease (``bad``) goes to
        # the only worker registered at t = 0: the calling thread.  Its
        # failure is reported like any worker's, not raised raw.
        with pytest.raises(ExecError, match="failed in its worker") as ei:
            run_specs([bad, small_specs(1)[0]], jobs=2)
        assert "Jacobi needs n >= 3" in str(ei.value)
        # One miss is the serial path: nothing between caller and error.
        with pytest.raises(ValueError, match="Jacobi needs n >= 3"):
            run_specs([bad], jobs=2)


class TestCallerIsAnExecutor:
    """``jobs=N``: the calling thread leases tasks like a worker (track
    0) next to ``N - 1`` spawned processes — unless a chaos plan is
    active, whose faults are meant for processes."""

    @pytest.fixture
    def launched(self, monkeypatch):
        """Every launcher made, so a test can see counts and processes."""
        made = []
        init = pool._Launcher.__init__

        def recording(self, coordinator, count):
            init(self, coordinator, count)
            made.append(self)

        monkeypatch.setattr(pool._Launcher, "__init__", recording)
        return made

    @pytest.fixture
    def in_caller(self, monkeypatch):
        """Wraps the simulation of every task the *caller* leases (spawned
        workers re-import the module and never see the patch): each waits
        ``hold[0]`` seconds, then runs — or raises ``hold[1]``."""
        ran, hold = [], [0.0, None]

        def run_spec(spec):
            ran.append((spec.config_digest(), threading.current_thread()))
            time.sleep(hold[0])
            if hold[1] is not None:
                raise hold[1]
            return pool.run_spec(spec)

        monkeypatch.setattr(worker_module, "run_spec", run_spec)
        return ran, hold

    def test_spawns_one_process_fewer_than_executors(
            self, launched, tmp_path, monkeypatch):
        run_specs(small_specs(3), jobs=3)
        run_specs(small_specs(2), jobs=8)  # never more than the misses
        run_specs(small_specs(1), jobs=2)  # one executor: the serial path
        assert [l.count for l in launched] == [2, 1]
        # any plan, even one that injects nothing, keeps the caller out
        monkeypatch.setenv(CHAOS_ENV, str(ChaosPlan().write(tmp_path / "p")))
        outcome = run_specs(small_specs(2), jobs=2)
        assert [l.count for l in launched] == [2, 1, 2]
        assert {o.worker for o in outcome.outcomes} <= {0, 1}
        run_specs(small_specs(1), jobs=2)
        assert [l.count for l in launched] == [2, 1, 2, 1]

    def test_caller_is_track_zero_beside_a_spawned_worker(self, in_caller):
        from repro.obs.export import pool_trace
        from repro.obs.schema import validate_trace

        ran, hold = in_caller
        hold[0] = 1.5  # every task of the caller's outlasts a spawn
        specs = small_specs(4)
        outcome = run_specs(specs, jobs=2)
        assert {o.worker for o in outcome.outcomes} == {0, 1}
        mine = {o.spec.config_digest() for o in outcome.outcomes
                if o.worker == 0}
        assert mine == {digest for digest, _ in ran}
        assert all(t is threading.main_thread() for _, t in ran)
        assert all(o.attempts == 1 and not outcome.degraded
                   for o in outcome.outcomes)
        validate_trace(pool_trace(outcome))
        assert ([r.to_json() for r in outcome.results]
                == [r.to_json() for r in run_specs(specs, jobs=1).results])
        assert multiprocessing.active_children() == []

    def test_progress_and_cache_puts_never_overlap(self, tmp_path):
        gate = threading.Lock()
        calls = []

        def exclusive(name, fn):
            def wrapped(*args, **kwargs):
                assert gate.acquire(blocking=False), f"{name} overlapped"
                try:
                    time.sleep(0.01)
                    calls.append(name)
                    return fn(*args, **kwargs)
                finally:
                    gate.release()
            return wrapped

        cache = ResultCache(root=tmp_path)
        cache.put = exclusive("put", cache.put)
        outcome = run_specs(small_specs(6), jobs=2, cache=cache,
                            progress=exclusive("progress", lambda *a: None))
        assert outcome.executed == 6
        assert calls == ["put", "progress"] * 6

    @pytest.mark.parametrize("raised, surfaces, match", [
        (RuntimeError("boom"), ExecError, "failed in its worker"),
        (KeyboardInterrupt(), KeyboardInterrupt, None),
    ])
    def test_failure_in_the_callers_lease_reaps_every_process(
            self, in_caller, launched, raised, surfaces, match):
        ran, hold = in_caller
        hold[:] = [0.3, raised]  # long enough for the spawn to be under way
        with pytest.raises(surfaces, match=match):
            run_specs(small_specs(3), jobs=3)
        assert ran
        (launcher,) = launched
        assert launcher.count == 2
        assert not any(proc.is_alive() for proc in launcher._procs)
        assert multiprocessing.active_children() == []
        # ... and no callback can run after the call has raised
        assert not any(t.name == "sweep-submit" for t in threading.enumerate())
