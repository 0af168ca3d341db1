"""The one scheduler: coordinator of every multi-process sweep.

A :class:`Coordinator` listens on a TCP socket, workers
(:mod:`repro.exec.worker`) register over the length-prefixed JSON
protocol (:mod:`repro.exec.wire`) and lease tasks, clients submit
:class:`~repro.exec.spec.ScenarioSpec` batches and get results streamed
back as they complete.  It is the paper's single master handing work to
a pool of processes that may join, leave or die — and it is the *only*
such master here: ``repro serve`` runs one for many hosts, and a local
``--jobs N`` sweep (:func:`repro.exec.pool.run_specs`) runs an ephemeral
one on ``127.0.0.1:0`` whose N workers are the calling thread and N - 1
spawned processes.

What the coordinator guarantees (docs/SERVICE.md has the full failure
semantics):

* **Content addressing end to end.**  Tasks are keyed by the spec's
  config digest; every completed result lands in the coordinator's
  shared content-addressed :class:`~repro.exec.cache.ResultCache`, so a
  scenario computed by any worker is served from cache forever after.
* **In-flight dedupe.**  Submissions of a digest that is already queued
  or running *attach* to the existing task instead of re-executing: a
  thundering herd of N identical submissions costs one execution and
  streams N identical reports (``exec.service.deduped == N-1``).
* **One supervision policy, enforced here and nowhere else.**  Every
  assignment carries a deadline
  (:class:`~repro.exec.supervisor.DeadlinePolicy`); a worker that
  overruns it — even one that keeps heartbeating — is dropped and its
  task requeued as ``task_timeout``.  A worker that disconnects or stops
  heartbeating has its tasks requeued as ``worker_crash``.  Requeues wait
  out the seeded backoff, every attempt counts against the one budget
  ``policy.retry.max_attempts``, and ``degrade_after`` consecutive
  failures hand every unfinished task back to its submitter
  (``error`` frames of kind ``degraded``).
* **Determinism.**  Simulations are deterministic, so whichever worker
  runs a spec — after any number of requeues — the streamed result is
  bitwise-identical to in-process serial execution.

Everything is plain threads + sockets: one handler thread per
connection, one clock thread for deadlines and backoff expiry, one lock
around the scheduling state.  Simulations dominate (seconds each, in
worker *processes*); coordination traffic is a few KB of JSON per task,
far below where the GIL or a fancier event loop would matter.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from queue import Empty, Queue
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ExecError
from .cache import CacheStats, ResultCache, code_version_salt
from .pool import ProgressFn, SweepOutcome, TaskOutcome
from .result import ScenarioResult
from .spec import ScenarioSpec
from .supervisor import (
    FAILURES,
    AttemptRecord,
    ResourceExhausted,
    RetryPolicy,
    SupervisorPolicy,
    TaskTimeout,
    WorkerCrash,
)
from .wire import (
    WIRE_SCHEMA,
    ConnectionClosed,
    WireError,
    connect,
    message,
    recv_message,
    send_message,
)

#: Default coordinator TCP port (``repro serve`` / ``--coordinator``).
DEFAULT_PORT = 7070

#: ``kind`` of the ``error`` frames that hand a task back unexecuted
#: when the coordinator stops trusting its workers (``degrade_after``).
DEGRADED = "degraded"

#: Seconds between worker heartbeats (the coordinator's liveness probe
#: allows :data:`HEARTBEAT_GRACE` multiples of this before declaring
#: death).
DEFAULT_HEARTBEAT_INTERVAL = 1.0
HEARTBEAT_GRACE = 8.0


def service_policy(max_attempts: Optional[int] = None) -> SupervisorPolicy:
    """The policy of a standing service (``repro serve --max-attempts``).

    Three attempts per task by default — coordinators supervise whole
    hosts, not processes — and no degradation: a service has no
    in-process path to fall back to, so its tasks fail with attribution
    instead of being handed back.
    """
    return SupervisorPolicy(
        retry=RetryPolicy(max_attempts=3 if max_attempts is None
                          else max_attempts),
        degrade_after=0)


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------
@dataclass
class ServiceCounters:
    """The ``exec.service.*`` counter family, coordinator-side."""

    submitted: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    requeued: int = 0
    failed: int = 0
    #: Times ``degrade_after`` tripped and unfinished tasks were handed back.
    degraded: int = 0
    workers_joined: int = 0
    workers_lost: int = 0
    inflight_peak: int = 0
    #: Failure-kind -> count (coordinator-attributed and worker-reported).
    failure_counts: Dict[str, int] = field(default_factory=dict)
    #: Per-worker throughput: id -> {"tasks": n, "busy_seconds": s}.
    per_worker: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def count_failure(self, kind: str, n: int = 1) -> None:
        self.failure_counts[kind] = self.failure_counts.get(kind, 0) + n

    def worker_done(self, worker_id: str, wall_seconds: float) -> None:
        info = self.per_worker.setdefault(
            worker_id, {"tasks": 0, "busy_seconds": 0.0})
        info["tasks"] += 1
        info["busy_seconds"] += wall_seconds

    def snapshot(self, inflight: int = 0, queued: int = 0,
                 workers: int = 0) -> Dict:
        """JSON-safe snapshot (what ``done``/``status_reply`` carry)."""
        return {
            "submitted": self.submitted,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "requeued": self.requeued,
            "failed": self.failed,
            "degraded": self.degraded,
            "workers_joined": self.workers_joined,
            "workers_lost": self.workers_lost,
            "inflight": inflight,
            "inflight_peak": self.inflight_peak,
            "queued": queued,
            "workers": workers,
            "failure_counts": dict(sorted(self.failure_counts.items())),
            "per_worker": {k: dict(v) for k, v in
                           sorted(self.per_worker.items())},
        }


def count_service_obs(obs, service: Dict) -> None:
    """Mirror a service-counter snapshot into ``exec.service.*`` counters.

    :func:`submit_outcome` calls this after a submission so ``repro report
    --sweep`` and the metrics exporters see the coordinator's dedupe/
    requeue/throughput accounting exactly like the local engine's
    ``exec.*`` family.
    """
    if obs is None or not service:
        return
    for key in ("submitted", "executed", "cache_hits", "deduped",
                "requeued", "failed", "inflight_peak"):
        if service.get(key):
            obs.count(f"exec.service.{key}", service[key])
    for kind, n in sorted(service.get("failure_counts", {}).items()):
        if n:
            obs.count(f"exec.service.failure.{kind}", n)
    for wid, info in sorted(service.get("per_worker", {}).items()):
        if info.get("tasks"):
            obs.count(f"exec.service.worker.{wid}.tasks", info["tasks"])
        if info.get("busy_seconds"):
            obs.count(f"exec.service.worker.{wid}.busy_seconds",
                      info["busy_seconds"])


# ---------------------------------------------------------------------------
# coordinator-side state
# ---------------------------------------------------------------------------
class _Client:
    """One submit connection: an outbox its handler thread drains."""

    def __init__(self, total: int):
        self.outbox: Queue = Queue()
        self.total = total
        self.dead = False

    def put(self, msg: Dict) -> None:
        if not self.dead:
            self.outbox.put(msg)


class _Task:
    """One distinct digest moving through the service."""

    __slots__ = ("task_id", "spec", "digest", "attempts", "log",
                 "waiters", "ready_at", "backoff", "assigned_at", "deadline")

    def __init__(self, task_id: str, spec: ScenarioSpec):
        self.task_id = task_id
        self.spec = spec
        self.digest = spec.config_digest()
        #: Failed attempts so far; the next one is ``attempts + 1``.
        self.attempts = 0
        #: :meth:`AttemptRecord.as_dict` per attempt, as ``report`` carries it.
        self.log: List[Dict] = []
        #: [(client, index, deduped)] — every submission waiting on this.
        self.waiters: List[Tuple[_Client, int, bool]] = []
        #: Not assignable before this instant (backoff after a failure).
        self.ready_at = 0.0
        self.backoff = 0.0
        self.assigned_at = 0.0
        self.deadline = 0.0


class _WorkerConn:
    """Coordinator-side view of one registered worker."""

    def __init__(self, index: int, sock: socket.socket, hello: Dict):
        #: 0-based registration order: the worker's timeline track.
        self.index = index
        self.worker_id = f"w{index + 1}"
        self.sock = sock
        self.send_lock = threading.Lock()
        self.host = hello.get("host", "?")
        self.pid = hello.get("pid", 0)
        self.busy: Dict[str, _Task] = {}
        self.tasks_done = 0

    def send(self, msg: Dict) -> None:
        with self.send_lock:
            send_message(self.sock, msg)

    def close(self) -> None:
        """Shut the socket down first: a plain ``close`` does not wake a
        handler thread blocked in ``recv`` on it."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer is already gone
        self.sock.close()


class Coordinator:
    """The scheduler: accept loop, queue, dedupe, supervision.

    Embeddable (``run_specs`` and the tests run it in-process on port 0)
    and daemonizable (``repro serve``).  ``cache`` is the shared
    content-addressed store every result lands in; ``None`` disables
    coordinator-side caching entirely (every submission executes, dedupe
    still applies).  ``policy`` is the supervision policy enforced on
    every task (default: :func:`service_policy`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[SupervisorPolicy] = None,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: Optional[float] = None):
        self.host = host
        self.cache = cache
        self.policy = (policy or service_policy()).validate()
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else heartbeat_interval * HEARTBEAT_GRACE
        )
        self._listener = socket.create_server((host, port))
        self.port = self._listener.getsockname()[1]
        self._mu = threading.RLock()
        #: Signalled when a deadline or a backoff expiry is added, so the
        #: clock thread sleeps exactly until the next one.
        self._wake = threading.Condition(self._mu)
        self._queue: deque = deque()           # _Task, FIFO (requeues front)
        self._inflight: Dict[str, _Task] = {}  # digest -> queued/running task
        self._workers: Dict[str, _WorkerConn] = {}
        #: Pid of every worker that ever registered: lets a launcher tell
        #: a process that died before registering from one dropped after.
        self.pids_seen: set = set()
        # Separate counters: ids must not depend on whether a submission
        # beat a worker's hello to the lock.
        self._worker_seq = 0
        self._task_seq = 0
        #: Failed attempts since the last success (``degrade_after``).
        self._consecutive = 0
        self.counters = ServiceCounters()
        self._stopping = threading.Event()
        self._threads: List[threading.Thread] = []

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "Coordinator":
        for target, name in ((self._accept_loop, "coordinator-accept"),
                             (self._clock_loop, "coordinator-clock")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the ``repro serve`` foreground)."""
        if not self._threads:
            self.start()
        while not self._stopping.wait(0.2):
            pass

    def stop(self) -> None:
        """Shut down: stop accepting, tell workers, drop clients."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._mu:
            workers = list(self._workers.values())
            self._workers.clear()
            for task in list(self._inflight.values()):
                self._answer_error(task, "shutdown", "coordinator shut down")
            self._queue.clear()
            self._wake.notify_all()
        for worker in workers:
            try:
                worker.send(message("shutdown", reason="coordinator stopping"))
            except (WireError, OSError):
                pass
            worker.close()

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection plumbing ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            thread = threading.Thread(
                target=self._serve_conn, args=(conn,),
                name="coordinator-conn", daemon=True)
            thread.start()
            self._threads.append(thread)

    def _serve_conn(self, sock: socket.socket) -> None:
        try:
            first = recv_message(sock)
        except (WireError, OSError, socket.timeout):
            sock.close()
            return
        t = first.get("t")
        try:
            if t == "hello" and first.get("role") == "worker":
                self._serve_worker(sock, first)
            elif t == "submit":
                self._serve_client(sock, first)
            elif t == "status":
                send_message(sock, self.status())
                sock.close()
            elif t == "stop":
                send_message(sock, message("ok"))
                sock.close()
                self.stop()
            else:
                send_message(sock, message(
                    "error", message=f"unexpected opening message {t!r}"))
                sock.close()
        except (WireError, OSError, socket.timeout):
            try:
                sock.close()
            except OSError:
                pass

    # -- workers -----------------------------------------------------------
    def _serve_worker(self, sock: socket.socket, hello: Dict) -> None:
        refusal = None
        salt = code_version_salt()
        if hello.get("schema") != WIRE_SCHEMA:
            refusal = (f"wire schema mismatch: {hello.get('schema')!r} "
                       f"!= {WIRE_SCHEMA!r}")
        elif hello.get("salt", salt) != salt:
            # Different sources may compute different results for the
            # same digest: such a worker must never feed the shared cache.
            refusal = (f"code salt mismatch: worker runs {hello['salt']!r}, "
                       f"coordinator {salt!r}")
        if refusal:
            send_message(sock, message("error", message=refusal))
            sock.close()
            return
        with self._mu:
            worker = _WorkerConn(self._worker_seq, sock, hello)
            self._worker_seq += 1
            self._workers[worker.worker_id] = worker
            self.pids_seen.add(worker.pid)
            self.counters.workers_joined += 1
        worker.send(message("welcome", schema=WIRE_SCHEMA,
                            worker_id=worker.worker_id,
                            heartbeat_interval=self.heartbeat_interval))
        with self._mu:
            self._pump()
        reason = "connection closed"
        sock.settimeout(self.heartbeat_timeout)
        while not self._stopping.is_set():
            try:
                msg = recv_message(sock)
            except socket.timeout:
                reason = (f"no heartbeat for {self.heartbeat_timeout:.1f}s")
                break
            except ConnectionClosed:
                break
            except (WireError, OSError) as err:
                reason = f"protocol error: {err}"
                break
            t = msg["t"]
            if t == "heartbeat":
                continue
            if t == "result":
                self._complete_task(worker, msg)
            elif t == "task_error":
                self._fail_task(worker, msg)
        self._lose_worker(worker, reason)

    def _complete_task(self, worker: _WorkerConn, msg: Dict) -> None:
        with self._mu:
            task = worker.busy.pop(msg["task_id"], None)
            if task is None:
                return  # already requeued elsewhere (stale completion)
            try:
                result = ScenarioResult.from_dict(msg["result"])
            except (TypeError, KeyError, ValueError) as err:
                # Undeserializable payload: treat like a crashed attempt.
                self._attempt_failed(
                    task, WorkerCrash,
                    f"got an undecodable result from {worker.worker_id}: "
                    f"{err}", worker)
                self._pump()
                return
            wall = float(msg.get("wall_seconds", 0.0))
            self._consecutive = 0
            self.counters.executed += 1
            self.counters.worker_done(worker.worker_id, wall)
            worker.tasks_done += 1
            if self.cache is not None:
                self.cache.put(task.spec, result, wall_seconds=wall)
            self._record(task, "ok", worker)
            if self._inflight.get(task.digest) is task:
                del self._inflight[task.digest]
            report = dict(result=msg["result"], wall_seconds=wall,
                          worker=worker.worker_id, attempts=task.attempts + 1,
                          attempt_log=task.log, digest=task.digest)
            for client, index, deduped in task.waiters:
                client.put(message("report", index=index, cached=False,
                                   deduped=deduped, **report))
            self._pump()

    def _fail_task(self, worker: _WorkerConn, msg: Dict) -> None:
        """A *deterministic* worker-side failure (the simulation raised):
        no requeue, it would fail identically anywhere."""
        with self._mu:
            task = worker.busy.pop(msg["task_id"], None)
            if task is None:
                return
            self.counters.failed += 1
            self.counters.count_failure(msg["kind"])
            self._answer_error(task, msg["kind"], msg["detail"])
            self._pump()

    def _record(self, task: _Task, outcome: str,
                worker: Optional[_WorkerConn], detail: str = "") -> None:
        """Append this attempt to the task's log, as the supervisor saw
        it: ``wall_seconds`` is the lease (assignment to outcome)."""
        now = time.monotonic()
        task.log.append(AttemptRecord(
            task.attempts + 1, outcome,
            wall_seconds=now - task.assigned_at if worker else 0.0,
            worker=worker.index if worker else -1, detail=detail,
            backoff_seconds=task.backoff).as_dict())

    def _answer_error(self, task: _Task, kind: str, text: str) -> None:
        """Retire ``task`` with an ``error`` frame to every waiter.
        Caller holds the lock."""
        if self._inflight.get(task.digest) is task:
            del self._inflight[task.digest]
        for client, index, _ in task.waiters:
            client.put(message(
                "error", message=text, index=index, digest=task.digest,
                kind=kind, attempts=task.attempts, attempt_log=task.log))
        task.waiters = []

    def _attempt_failed(self, task: _Task, failure, detail: str,
                        worker: Optional[_WorkerConn] = None) -> None:
        """One attempt failed for a reason a rerun can cure (``failure``
        is the :class:`TaskFailure` class): requeue after the backoff,
        give up when the budget is spent, degrade when failures pile up.
        The single place the retry half of the policy is enforced.
        Caller holds the lock."""
        if self._inflight.get(task.digest) is not task:
            return  # handed back at a degrade: nobody is waiting for it
        self.counters.count_failure(failure.kind)
        self._consecutive += 1
        self._record(task, failure.kind, worker, detail)
        task.attempts += 1
        if task.attempts >= self.policy.retry.max_attempts:
            self.counters.failed += 1
            self._answer_error(
                task, failure.kind,
                f"scenario {task.spec.display_name} "
                f"(digest {task.digest[:12]}) {detail}; giving up after "
                f"{task.attempts} attempt(s)")
            return
        self.counters.requeued += 1
        task.backoff = self.policy.retry.backoff(task.digest,
                                                 task.attempts + 1)
        task.ready_at = time.monotonic() + task.backoff
        self._queue.appendleft(task)
        self._wake.notify()
        if (self.policy.degrade_after
                and self._consecutive >= self.policy.degrade_after):
            # The workers, not one task, look sick: hand everything
            # unfinished back.  Attempts still running are abandoned where
            # they are (a late result is cached, a late failure ignored).
            self.counters.degraded += 1
            self._consecutive = 0
            for unfinished in list(self._inflight.values()):
                self._answer_error(
                    unfinished, DEGRADED,
                    f"handed back after {self.policy.degrade_after} "
                    f"consecutive failed attempts")
            self._queue.clear()

    def no_worker(self, detail: str) -> None:
        """A worker could not be started (the launcher of a local sweep
        calls this).  While any worker is registered the sweep carries on
        with the executors there are and the refusal is only recorded —
        once: the launcher retries every pass, and this is an event; with
        none, the task that is waiting is charged exactly as if its
        attempt had failed — ``resource_exhausted``."""
        with self._mu:
            if self._workers:
                self.counters.failure_counts.setdefault(
                    ResourceExhausted.kind, 1)
                return
            now = time.monotonic()
            task = next((t for t in self._queue if t.ready_at <= now), None)
            if task is not None:
                self._queue.remove(task)
                self._attempt_failed(task, ResourceExhausted,
                                     f"could not get a worker: {detail}")

    def _lose_worker(self, worker: _WorkerConn, reason: str,
                     overdue: Sequence[_Task] = ()) -> None:
        """Drop ``worker`` and requeue what it held: the ``overdue`` tasks
        as timeouts, the rest as crashes."""
        with self._mu:
            if self._workers.pop(worker.worker_id, None) is None:
                return  # already dropped (deadline, shutdown)
            self.counters.workers_lost += 1
            for task in list(worker.busy.values()):
                if task in overdue:
                    failure, detail = TaskTimeout, (
                        f"exceeded its {task.deadline - task.assigned_at:.1f}s "
                        f"deadline on {worker.worker_id}; worker dropped")
                else:
                    failure, detail = WorkerCrash, (
                        f"crashed its worker {worker.worker_id} ({reason})")
                self._attempt_failed(task, failure, detail, worker)
            worker.busy.clear()
            self._pump()
        worker.close()

    # -- scheduling --------------------------------------------------------
    def _pump(self) -> None:
        """Assign ready queued tasks to idle workers, each with its
        deadline — the single place the deadline half of the policy is
        stamped.  Caller holds the lock; sends ride the per-worker send
        locks."""
        while True:
            now = time.monotonic()
            task = next((t for t in self._queue if t.ready_at <= now), None)
            target = min(
                (w for w in self._workers.values() if not w.busy),
                key=lambda w: w.index, default=None)
            if task is None or target is None:
                return
            self._queue.remove(task)
            task.assigned_at = now
            task.deadline = now + self.policy.deadline.deadline_for(task.spec)
            target.busy[task.task_id] = task
            self._wake.notify()
            try:
                target.send(message("task", task_id=task.task_id,
                                    spec=task.spec.to_wire(),
                                    attempt=task.attempts + 1))
            except (WireError, OSError):
                # The send itself found the corpse; its reader thread will
                # run the full _lose_worker path.  Requeue just this task.
                target.busy.pop(task.task_id, None)
                self._attempt_failed(
                    task, WorkerCrash,
                    f"crashed its worker {target.worker_id} (send failed)",
                    target)

    def _clock_loop(self) -> None:
        """What only time can trigger: drop workers holding a task past
        its deadline, release tasks whose backoff has run out."""
        with self._mu:
            while not self._stopping.is_set():
                now = time.monotonic()
                for worker in list(self._workers.values()):
                    overdue = [t for t in worker.busy.values()
                               if t.deadline <= now]
                    if overdue:
                        self._lose_worker(worker, "deadline overrun", overdue)
                self._pump()
                due = [t.ready_at for t in self._queue if t.ready_at > now]
                due += [t.deadline for w in self._workers.values()
                        for t in w.busy.values()]
                self._wake.wait(min(due) - now if due else None)

    # -- clients -----------------------------------------------------------
    def _serve_client(self, sock: socket.socket, submit: Dict) -> None:
        t_start = time.perf_counter()
        no_cache = bool(submit.get("no_cache", False))
        refresh = bool(submit.get("refresh", False))
        try:
            specs = [ScenarioSpec.from_wire(d) for d in submit["specs"]]
        except Exception as err:  # bad spec: structured reply, keep serving
            send_message(sock, message(
                "error", message=f"undecodable submission: {err}"))
            sock.close()
            return
        client = _Client(total=len(specs))
        stats = {"cache_hits": 0, "deduped": 0, "executed": 0}
        with self._mu:
            for index, spec in enumerate(specs):
                self.counters.submitted += 1
                self._enqueue(client, index, spec, no_cache=no_cache,
                              refresh=refresh, stats=stats)
            self.counters.inflight_peak = max(self.counters.inflight_peak,
                                              len(self._inflight))
            self._pump()
        served = 0
        try:
            while served < client.total:
                try:
                    out = client.outbox.get(timeout=0.2)
                except Empty:
                    if self._stopping.is_set():
                        return
                    continue
                send_message(sock, out)
                served += 1
            with self._mu:
                snapshot = self.counters.snapshot(
                    inflight=len(self._inflight), queued=len(self._queue),
                    workers=len(self._workers))
            send_message(sock, message(
                "done", total=client.total, executed=stats["executed"],
                cache_hits=stats["cache_hits"], deduped=stats["deduped"],
                requeued=snapshot["requeued"],
                wall_seconds=time.perf_counter() - t_start,
                service=snapshot))
        except (WireError, OSError):
            client.dead = True  # client went away; tasks finish for cache
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _enqueue(self, client: _Client, index: int, spec: ScenarioSpec,
                 no_cache: bool, refresh: bool, stats: Dict) -> None:
        """Serve from cache, attach to an in-flight digest, or queue a
        new task.  Caller holds the lock."""
        digest = spec.config_digest()
        if self.cache is not None and not no_cache and not refresh:
            hit = self.cache.get(spec)
            if hit is not None:
                self.counters.cache_hits += 1
                stats["cache_hits"] += 1
                client.put(message(
                    "report", index=index, digest=digest,
                    result=hit.result.to_dict(), cached=True, deduped=False,
                    wall_seconds=hit.wall_seconds, worker="", attempts=0))
                return
        task = self._inflight.get(digest)
        if task is not None:
            self.counters.deduped += 1
            stats["deduped"] += 1
            task.waiters.append((client, index, True))
            return
        self._task_seq += 1
        task = _Task(f"t{self._task_seq}", spec)
        task.waiters.append((client, index, False))
        stats["executed"] += 1
        self._inflight[digest] = task
        self._queue.append(task)

    # -- status ------------------------------------------------------------
    def status(self) -> Dict:
        """The ``status_reply`` frame: worker table and counters."""
        with self._mu:
            workers = [
                {"id": w.worker_id, "host": w.host, "pid": w.pid,
                 "busy": len(w.busy),
                 "tasks_done": w.tasks_done}
                for w in sorted(self._workers.values(),
                                key=lambda w: w.worker_id)
            ]
            return message(
                "status_reply", workers=workers,
                counters=self.counters.snapshot(
                    inflight=len(self._inflight), queued=len(self._queue),
                    workers=len(self._workers)),
                queued=len(self._queue), inflight=len(self._inflight))


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------
def _attempt_log(frame: Dict) -> Tuple[AttemptRecord, ...]:
    return tuple(AttemptRecord(**a) for a in frame.get("attempt_log") or ())


class Submission:
    """One ``submit`` conversation: iterate to stream the outcomes.

    :class:`~repro.exec.pool.TaskOutcome` objects arrive in *completion* order
    (``started_at``/``ended_at`` in seconds since the submission: arrival
    of the report, minus the lease); :attr:`done` (the coordinator's
    closing stats frame, including the ``exec.service.*`` snapshot) is
    populated once iteration finishes.  Per-index failures are collected
    and raised as one typed error (:data:`~repro.exec.supervisor.FAILURES`,
    else plain :class:`ExecError`) after the surviving outcomes have been
    yielded, so a partial sweep is still observable.  Tasks a degrading
    coordinator handed back unexecuted are not failures: they collect in
    :attr:`handed_back` as outcomes with ``result=None`` and
    ``worker=-2``, carrying their failed attempts, for the caller to
    finish (:func:`~repro.exec.pool.run_specs` does, in process).
    """

    def __init__(self, specs: Sequence[ScenarioSpec], address: str, *,
                 no_cache: bool = False, refresh: bool = False):
        self.specs = list(specs)
        self.done: Optional[Dict] = None
        self.failures: List[Dict] = []
        self.handed_back: List[TaskOutcome] = []
        self.t_start = time.perf_counter()
        self._sock = connect(address)
        send_message(self._sock, message(
            "submit", specs=[s.to_wire() for s in self.specs],
            no_cache=no_cache, refresh=refresh))

    def __iter__(self):
        try:
            remaining = len(self.specs)
            while remaining > 0:
                msg = recv_message(self._sock)
                t = msg["t"]
                if t not in ("report", "error"):
                    raise WireError(f"unexpected frame {t!r} mid-stream")
                remaining -= 1
                index = msg.get("index")
                log = _attempt_log(msg)
                if t == "report":
                    ended = time.perf_counter() - self.t_start if log else 0.0
                    lease = log[-1].wall_seconds if log else 0.0
                    yield TaskOutcome(
                        index=index, spec=self.specs[index],
                        result=ScenarioResult.from_dict(msg["result"]),
                        wall_seconds=float(msg.get("wall_seconds", 0.0)),
                        cached=bool(msg["cached"]),
                        attempts=int(msg.get("attempts", 0)), worker=-3,
                        started_at=max(0.0, ended - lease), ended_at=ended,
                        attempt_log=log,
                        worker_id=str(msg.get("worker", "")),
                        deduped=bool(msg["deduped"]))
                elif msg.get("kind") == DEGRADED:
                    self.handed_back.append(TaskOutcome(
                        index=index, spec=self.specs[index], result=None,
                        wall_seconds=0.0, cached=False,
                        attempts=int(msg.get("attempts", 0)), worker=-2,
                        attempt_log=log))
                else:
                    self.failures.append(msg)
                    if index is None:
                        break  # submission-level error: nothing follows
            else:
                msg = recv_message(self._sock)
                if msg["t"] == "done":
                    self.done = msg
        finally:
            self.close()
        if self.failures:
            first = self.failures[0]
            kind = first.get("kind", "error")
            text = (f"{len(self.failures)} scenario(s) failed at the "
                    f"coordinator; first [{kind}]: {first['message']}")
            if kind in FAILURES and "index" in first:
                raise FAILURES[kind](text, spec=self.specs[first["index"]],
                                     attempts=int(first.get("attempts", 0)))
            raise ExecError(text)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def submit_outcome(specs: Sequence[ScenarioSpec], address: str, *,
                   no_cache: bool = False, refresh: bool = False,
                   progress: Optional[ProgressFn] = None,
                   obs=None) -> SweepOutcome:
    """Submit a batch and reassemble the stream into a :class:`SweepOutcome`.

    The remote engine (``--coordinator`` on the CLI) and the one
    reassembly function, also behind every local ``jobs >= 2`` sweep:
    outcomes land in spec order, results bitwise-identical to serial
    execution; the coordinator's service counters become
    ``cache_stats``, ``retried``, ``failure_counts`` and the outcome's
    ``service`` snapshot, and are mirrored into ``obs`` as
    ``exec.service.*``.  ``degraded`` is set when tasks were handed back
    (see :class:`Submission`); they fill their places unfinished.
    """
    sub = Submission(specs, address, no_cache=no_cache, refresh=refresh)
    total = len(sub.specs)
    outcomes: List[Optional[TaskOutcome]] = [None] * total
    for done_ct, outcome in enumerate(sub, 1):
        outcomes[outcome.index] = outcome
        if progress is not None:
            progress(outcome, done_ct, total)
    for outcome in sub.handed_back:
        outcomes[outcome.index] = outcome
    done = sub.done or {}
    service = done.get("service", {})
    count_service_obs(obs, service)
    cache_stats = CacheStats(hits=done.get("cache_hits", 0),
                             misses=done.get("executed", 0),
                             stores=done.get("executed", 0))
    return SweepOutcome(
        outcomes=outcomes,  # type: ignore[arg-type]
        cache_stats=cache_stats,
        jobs=max(1, int(service.get("workers", 0))),
        executed=done.get("executed", 0),
        retried=service.get("requeued", 0),
        wall_seconds=time.perf_counter() - sub.t_start,
        failure_counts=dict(service.get("failure_counts", {})),
        degraded=bool(sub.handed_back),
        service=service or None,
    )


def service_status(address: str, timeout: Optional[float] = 10.0) -> Dict:
    """Ask a running coordinator for its worker table and counters."""
    sock = connect(address, timeout=timeout)
    try:
        send_message(sock, message("status"))
        reply = recv_message(sock)
    finally:
        sock.close()
    if reply["t"] != "status_reply":
        raise WireError(f"unexpected status reply {reply['t']!r}")
    return reply


def stop_service(address: str, timeout: Optional[float] = 10.0) -> bool:
    """Ask a running coordinator to shut down; True when acknowledged."""
    sock = connect(address, timeout=timeout)
    try:
        send_message(sock, message("stop"))
        reply = recv_message(sock)
    finally:
        sock.close()
    return reply["t"] == "ok"
