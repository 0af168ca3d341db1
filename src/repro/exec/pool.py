"""Scenario execution with deterministic merge: the sweep's front half.

:func:`run_specs` is the engine's entry point: it takes an ordered list
of :class:`~repro.exec.spec.ScenarioSpec`, answers what it can from the
result cache (a warm sweep starts no process), executes the misses (one
run per digest, however often the list repeats it), streams per-task
progress, and merges everything back **in spec order** —
so the output is bitwise-identical to running the same list serially
(simulations are deterministic; see ``tests/exec/test_engine_e2e.py``
and ``tests/exec/test_chaos.py``).

``jobs=1`` executes in the calling process: that path *is* serial
execution, and is what everything else is tested against.  ``jobs>=2``
does no scheduling here either: the misses are submitted to an
ephemeral :class:`~repro.exec.service.Coordinator` on ``127.0.0.1:0`` —
the one scheduler, which owns the queue, in-flight dedupe, deadlines,
seeded-backoff retries and the attempt budget
(:mod:`repro.exec.supervisor`) — and executed by ``N = min(jobs,
misses)`` workers of it.  The caller is the first of the N: the calling
thread registers as a :class:`~repro.exec.worker.Worker` (always track
0) and leases tasks from t = 0, while a small launcher keeps ``N - 1``
spawned :func:`~repro.exec.worker.worker_main` processes alive — as the
paper's master computes its share of every loop and hides process
creation behind the running computation (§4.1).  Workers are spawned
(never forked) so their simulations run in an interpreter with no
inherited simulator state; a ``--jobs N`` sweep costs N - 1 spawns, not
one per task, nobody waits for them, and ``N == 1`` is the ``jobs=1``
path outright (no coordinator, no socket, no process).  A task the
caller runs is supervised as on the ``jobs=1`` path: it cannot be
reaped, it runs to its end.

The one exception: under an active ``REPRO_EXEC_CHAOS`` plan
(:mod:`repro.exec.chaos`) the caller only supervises and all N workers
are spawned, because the plan's kills and hangs target worker
*processes* — an in-process executor would silently dodge them.

When the workers themselves look sick — ``degrade_after`` *consecutive*
failed attempts anywhere in the sweep — the coordinator hands the
unfinished tasks back and they are finished serially in process.  Serial
execution cannot crash-loop, and because the simulations are
deterministic the degraded sweep still returns bitwise-identical
results; it is just slower.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ExecError
from .cache import CacheStats, ResultCache
from .chaos import active_plan
from .result import ScenarioResult
from .spec import ScenarioSpec
from .supervisor import AttemptRecord, SupervisorPolicy

#: Grace period between SIGTERM and SIGKILL when reaping a worker.
REAP_GRACE_SECONDS = 2.0

#: How often the launcher looks for dead or dropped workers (seconds).
LAUNCHER_POLL_SECONDS = 0.05


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given (one per core)."""
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# single-spec execution (runs in workers and on the jobs=1 path alike)
# ---------------------------------------------------------------------------
def execute_spec(spec: ScenarioSpec, obs=None):
    """Run one spec live; returns (ExperimentResult, wall seconds).

    This is the single place a :class:`ScenarioSpec` turns into a
    simulation — :func:`run_spec` (and through it the whole engine) and
    :func:`repro.api.run` both come through here.  ``obs`` is a
    :class:`~repro.obs.Registry` recorded into by the run.
    """
    from ..bench.harness import run_experiment

    cfg = spec.build_config()
    runtime_kwargs = {}
    if spec.checkpoint_interval is not None:
        runtime_kwargs["checkpoint_interval"] = spec.checkpoint_interval
    if spec.failure_detection or spec.has_crashes:
        runtime_kwargs["failure_detection"] = True
    install = (
        spec.install_events if (spec.events or spec.fault_plan) else None
    )
    t0 = time.perf_counter()
    res = run_experiment(
        spec.build_app,
        nprocs=spec.nprocs,
        adaptive=spec.effective_adaptive,
        extra_nodes=spec.extra_nodes,
        cfg=cfg,
        materialized=spec.materialized,
        events=install,
        runtime_kwargs=runtime_kwargs if spec.effective_adaptive else None,
        obs=obs,
    )
    return res, time.perf_counter() - t0


def run_spec(spec: ScenarioSpec) -> Tuple[ScenarioResult, float]:
    """Execute one spec to completion; returns (result, wall seconds)."""
    res, wall = execute_spec(spec)
    return (
        ScenarioResult.from_experiment(res, events=res.runtime.sim.events_executed),
        wall,
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaskOutcome:
    """How one spec was satisfied (cache or execution)."""

    index: int
    spec: ScenarioSpec
    #: None only in what :func:`~repro.exec.service.submit_outcome`
    #: returns for a degraded coordinator (a task handed back unexecuted).
    result: Optional[ScenarioResult]
    #: Wall seconds of the execution (0.0 for cache hits); machine
    #: dependent, deliberately *not* part of :class:`ScenarioResult`.
    wall_seconds: float
    cached: bool
    #: Executions attempted (0 for hits, >1 after a requeue).
    attempts: int
    #: Local worker that executed this task, numbered in registration
    #: order (0 is the calling thread — on the serial path and as the
    #: first worker of a ``jobs >= 2`` sweep alike — unless a chaos plan
    #: keeps the caller out; -1 for cache hits — they take no worker time,
    #: -2 for the serial-degradation fallback, -3 for remote execution).
    worker: int = -1
    #: Wall-clock start/end of the successful execution, in seconds since
    #: the sweep began (both 0.0 for cache hits).  ``repro sweep
    #: --timeline`` renders these as the worker utilization timeline.
    started_at: float = 0.0
    ended_at: float = 0.0
    #: Per-attempt supervision history (failures first, then the final
    #: ``"ok"``); empty for cache hits and the plain serial path.
    attempt_log: Tuple[AttemptRecord, ...] = ()
    #: Remote worker that executed this task (coordinator-assigned id,
    #: e.g. ``"w2"``); empty for local execution, where ``worker`` is the
    #: whole story.
    worker_id: str = ""
    #: Coalesced onto another task of the same digest in the same sweep
    #: (its result was computed once, for the other one).
    deduped: bool = False


@dataclass
class SweepOutcome:
    """Everything :func:`run_specs` produces, in spec order."""

    outcomes: List[TaskOutcome]
    cache_stats: CacheStats
    jobs: int
    #: Simulations this sweep ran (duplicates of one digest count once).
    executed: int
    retried: int
    wall_seconds: float = 0.0
    #: Failure-kind → count across all attempts this sweep (retried
    #: *and* terminal); empty when nothing went wrong.
    failure_counts: Dict[str, int] = field(default_factory=dict)
    #: True when the sweep fell back to in-process serial execution.
    degraded: bool = False
    #: Coordinator counter snapshot for remote sweeps (the
    #: ``exec.service.*`` family as a dict); None for local execution.
    service: Optional[Dict] = None

    @property
    def results(self) -> List[ScenarioResult]:
        return [o.result for o in self.outcomes]

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)


ProgressFn = Callable[[TaskOutcome, int, int], None]


def run_specs(
    specs: Sequence[ScenarioSpec],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    refresh: bool = False,
    progress: Optional[ProgressFn] = None,
    supervisor: Optional[SupervisorPolicy] = None,
    obs=None,
) -> SweepOutcome:
    """Run every spec, answering from ``cache`` where possible.

    Results come back in spec order regardless of completion order, and
    are bitwise-identical to ``jobs=1`` serial execution.  ``refresh``
    forces re-execution (and re-stores) even on a warm cache.  Specs
    that share a digest are one simulation whatever ``jobs`` is: the
    first runs, the rest are copies marked ``deduped``.

    ``supervisor`` carries the resilience policy (deadlines, backoff
    retries, the attempt budget, degradation; default
    :class:`SupervisorPolicy`).  ``obs`` is an optional
    :class:`~repro.obs.Registry`; the engine counts retries, failures by
    kind, quarantined cache entries and degradations into it.
    """
    specs = list(specs)
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        raise ExecError("jobs must be >= 1")
    policy = (supervisor or SupervisorPolicy()).validate()
    t_start = time.perf_counter()
    total = len(specs)
    outcomes: List[Optional[TaskOutcome]] = [None] * total
    done = 0
    corrupt_before = cache.stats.corrupt if cache is not None else 0
    #: digest -> index of the first spec that missed the cache with it,
    #: and that index -> the later specs of the same digest.
    leader: Dict[str, int] = {}
    twins: Dict[int, List[int]] = {}

    def _finish(outcome: TaskOutcome) -> None:
        nonlocal done
        outcomes[outcome.index] = outcome
        done += 1
        if progress is not None:
            progress(outcome, done, total)
        for j in twins.get(outcome.index, ()):
            _finish(replace(outcome, index=j, spec=specs[j], deduped=True))

    def _run_here(i: int, spec: ScenarioSpec, **outcome_fields) -> None:
        started = time.perf_counter() - t_start
        result, wall = run_spec(spec)
        ended = time.perf_counter() - t_start
        if cache is not None:
            cache.put(spec, result, wall_seconds=wall)
        _finish(TaskOutcome(i, spec, result, wall, cached=False,
                            started_at=started, ended_at=ended,
                            **outcome_fields))

    pending: List[Tuple[int, ScenarioSpec]] = []
    for i, spec in enumerate(specs):
        digest = spec.config_digest()
        if digest in leader:
            twins.setdefault(leader[digest], []).append(i)
            continue
        hit = cache.get(spec) if (cache is not None and not refresh) else None
        if hit is not None:
            _finish(TaskOutcome(i, spec, hit.result, hit.wall_seconds,
                                cached=True, attempts=0))
        else:
            leader[digest] = i
            pending.append((i, spec))

    retried = 0
    degraded = False
    failure_counts: Dict[str, int] = {}
    executors = min(jobs, len(pending))
    # The caller is the first executor — unless a chaos plan is active:
    # its kills and hangs target worker *processes*, so then all are
    # spawned and the caller only supervises.
    caller_runs = jobs == 1 or active_plan() is None
    if pending and executors == 1 and caller_runs:
        for i, spec in pending:
            _run_here(i, spec, attempts=1, worker=0)
    elif pending:
        from .service import Coordinator, submit_outcome
        from .worker import Worker

        def _merge(o: TaskOutcome, _done: int, _total: int) -> None:
            i, spec = pending[o.index]
            if cache is not None:
                cache.put(spec, o.result, wall_seconds=o.wall_seconds)
            _finish(replace(o, index=i, worker=o.attempt_log[-1].worker,
                            worker_id="", started_at=o.started_at + lead,
                            ended_at=o.ended_at + lead))

        sweep = failure = None

        def _feed() -> None:
            """Stream the reports in (every ``progress`` / ``cache.put``
            of the sweep happens on this thread, one at a time) and send
            the caller home when the last one has arrived."""
            nonlocal sweep, failure
            try:
                sweep = submit_outcome(
                    [spec for _, spec in pending], coordinator.address,
                    no_cache=True, progress=_merge)
            except BaseException as err:  # re-raised on the calling thread
                failure = err
            finally:
                if me is not None:
                    me.stop()

        with Coordinator(cache=None, policy=policy) as coordinator:
            launcher = _Launcher(
                coordinator, executors - 1 if caller_runs else executors)
            me = Worker(coordinator.address) if caller_runs else None
            feeder = threading.Thread(target=_feed, name="sweep-submit",
                                      daemon=True)
            try:
                if me is not None:
                    me.register()  # before any process can: track 0
                launcher.start()
                lead = time.perf_counter() - t_start
                feeder.start()
                if me is not None:
                    me.run()
                feeder.join()
            finally:
                launcher.stop()
                if feeder.is_alive():
                    # An exception got here first: cut the stream, so no
                    # ``progress`` / ``cache.put`` runs once this has raised.
                    coordinator.stop()
                    feeder.join()
        if failure is not None:
            raise failure
        retried = sweep.retried
        failure_counts = sweep.failure_counts
        degraded = sweep.degraded
        for o in sweep.outcomes:
            if o.result is None:  # handed back: finish it here, serially
                attempt = o.attempts + 1
                _run_here(*pending[o.index], attempts=attempt, worker=-2,
                          attempt_log=o.attempt_log + (AttemptRecord(
                              attempt, "ok", worker=-2,
                              detail="serial degradation"),))

    corrupt_seen = (cache.stats.corrupt - corrupt_before
                    if cache is not None else 0)
    if corrupt_seen:
        failure_counts["cache_corrupt"] = (
            failure_counts.get("cache_corrupt", 0) + corrupt_seen
        )
    if obs is not None:
        if retried:
            obs.count("exec.retry", retried)
        for kind, n in sorted(failure_counts.items()):
            obs.count(f"exec.failure.{kind}", n)
        if degraded:
            obs.count("exec.degraded")
        if corrupt_seen:
            obs.count("exec.cache.quarantined", corrupt_seen)

    return SweepOutcome(
        outcomes=outcomes,  # type: ignore[arg-type]  (all filled above)
        cache_stats=cache.stats if cache is not None else CacheStats(),
        jobs=jobs,
        executed=len(pending),
        retried=retried,
        wall_seconds=time.perf_counter() - t_start,
        failure_counts=failure_counts,
        degraded=degraded,
    )


def _reap(proc, grace: float = REAP_GRACE_SECONDS) -> None:
    """Stop a worker for sure: terminate → join(grace) → kill → join.

    A worker that ignores or cannot service SIGTERM (wedged in native
    code, masked signals) gets SIGKILL after ``grace`` seconds; the final
    unbounded join is safe because SIGKILL cannot be ignored.
    """
    proc.terminate()
    proc.join(grace)
    if proc.is_alive():
        proc.kill()
        proc.join()


class _Launcher:
    """Keeps ``count`` spawned workers attached to a local coordinator.

    The process half of a ``jobs >= 2`` sweep, and the only place sweep
    processes are created.  It decides nothing about tasks: it replaces
    a worker that died, reaps and replaces one the coordinator dropped
    (a deadline overrun leaves the process wedged but alive), and tells
    the coordinator when a worker could not be had at all
    (:meth:`~repro.exec.service.Coordinator.no_worker` —
    ``resource_exhausted``).  :meth:`stop` reaps every process it ever
    started that is still alive.
    """

    def __init__(self, coordinator, count: int):
        import multiprocessing

        self.coordinator = coordinator
        self.count = count
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="sweep-launcher", daemon=True)

    def start(self) -> None:
        self._tend()
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(LAUNCHER_POLL_SECONDS):
            self._tend()

    def _tend(self) -> None:
        """One pass: reap the dead and the dropped, top the pool back up."""
        from .worker import worker_main

        # Snapshot before the table: a pid in ``seen`` but not ``listed``
        # was dropped; one in neither is still starting.
        seen = set(self.coordinator.pids_seen)
        listed = {w["pid"] for w in self.coordinator.status()["workers"]}
        for proc in list(self._procs):
            if proc.pid in listed or (proc.is_alive()
                                      and proc.pid not in seen):
                continue
            _reap(proc)
            self._procs.remove(proc)
            if proc.pid not in self.coordinator.pids_seen:
                self.coordinator.no_worker(
                    f"worker process exited with code {proc.exitcode} "
                    f"before registering")
        while len(self._procs) < self.count:
            proc = self._ctx.Process(
                target=worker_main, args=(self.coordinator.address,))
            try:
                proc.start()
            except OSError as err:
                self.coordinator.no_worker(str(err))
                return
            self._procs.append(proc)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        for proc in self._procs:
            _reap(proc)
