"""Coordinator of the distributed sweep service.

The multi-host face of the execution engine (ROADMAP item 1, the
"millions of users" backend): a :class:`Coordinator` listens on a TCP
socket, workers (:mod:`repro.exec.worker`) register over the
length-prefixed JSON protocol (:mod:`repro.exec.wire`) and lease tasks,
clients submit :class:`~repro.exec.spec.ScenarioSpec` batches and get
results streamed back as they complete.  The same coordinator/worker
split the task-offloading cluster-OpenMP papers use, applied to the
scenario grid.

What the coordinator guarantees (docs/SERVICE.md has the full failure
semantics):

* **Content addressing end to end.**  Tasks are keyed by the spec's
  config digest; every completed result lands in the coordinator's
  shared content-addressed :class:`~repro.exec.cache.ResultCache`, so a
  scenario computed by any worker is served from cache forever after —
  digests are location-independent, worker caches merge losslessly
  (:func:`repro.exec.merge.merge_caches`).
* **In-flight dedupe.**  Submissions of a digest that is already queued
  or running *attach* to the existing task instead of re-executing: a
  thundering herd of N identical submissions costs one execution and
  streams N identical reports (``exec.service.deduped == N-1``).
* **Requeue on death.**  A worker that disconnects or stops heartbeating
  gets its in-flight tasks requeued (attempt-counted against
  ``max_attempts``, :class:`~repro.exec.supervisor.WorkerCrash`
  semantics) and handed to surviving workers; waiters never observe the
  death unless the attempt budget runs out.
* **Determinism.**  Simulations are deterministic, so whichever worker
  runs a spec — after any number of requeues — the streamed result is
  bitwise-identical to a single-host ``repro sweep``.

Everything is plain threads + sockets: one handler thread per
connection, one lock around the scheduling state.  Simulations dominate
(seconds each, in worker *processes*); coordination traffic is a few KB
of JSON per task, far below where the GIL or a fancier event loop would
matter.
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
from .cache import CacheStats, ResultCache
from .pool import ProgressFn, SweepOutcome, TaskOutcome
from .result import ScenarioResult
from .spec import ScenarioSpec
from .supervisor import WorkerCrash
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

#: Attempts a task gets across worker deaths before its waiters see a
#: structured failure (matches the local engine's default of 1 retry +
#: one extra chance: coordinators supervise whole hosts, not processes).
DEFAULT_MAX_ATTEMPTS = 3

#: Seconds between worker heartbeats (the coordinator's liveness probe
#: allows :data:`HEARTBEAT_GRACE` multiples of this before declaring
#: death).
DEFAULT_HEARTBEAT_INTERVAL = 1.0
HEARTBEAT_GRACE = 8.0


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

    The remote executor calls this after a submission so ``repro report
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

    __slots__ = ("task_id", "spec", "digest", "repeat", "attempts",
                 "waiters", "assigned_to")

    def __init__(self, task_id: str, spec: ScenarioSpec, repeat: int):
        self.task_id = task_id
        self.spec = spec
        self.digest = spec.config_digest()
        self.repeat = repeat
        self.attempts = 0
        #: [(client, index, deduped)] — every submission waiting on this.
        self.waiters: List[Tuple[_Client, int, bool]] = []
        self.assigned_to: Optional[str] = None


class _WorkerConn:
    """Coordinator-side view of one registered worker."""

    def __init__(self, worker_id: str, sock: socket.socket, hello: Dict):
        self.worker_id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.host = hello.get("host", "?")
        self.pid = hello.get("pid", 0)
        self.slots = max(1, int(hello.get("slots", 1)))
        self.busy: Dict[str, _Task] = {}
        self.tasks_done = 0

    def send(self, msg: Dict) -> None:
        with self.send_lock:
            send_message(self.sock, msg)


class Coordinator:
    """The service: accept loop, scheduler, dedupe and requeue logic.

    Embeddable (tests run it in-process on port 0) and daemonizable
    (``repro serve``).  ``cache`` is the shared content-addressed store
    every result lands in; ``None`` disables coordinator-side caching
    entirely (every submission executes, dedupe still applies).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 cache: Optional[ResultCache] = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: Optional[float] = None):
        if max_attempts < 1:
            raise ExecError("max_attempts must be >= 1")
        self.host = host
        self.cache = cache
        self.max_attempts = max_attempts
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout if heartbeat_timeout is not None
            else heartbeat_interval * HEARTBEAT_GRACE
        )
        self._listener = socket.create_server((host, port))
        self.port = self._listener.getsockname()[1]
        self._mu = threading.RLock()
        self._queue: deque = deque()           # _Task, FIFO (requeues front)
        self._inflight: Dict[str, _Task] = {}  # digest -> queued/running task
        self._workers: Dict[str, _WorkerConn] = {}
        # Separate counters: ids must not depend on whether a submission
        # beat a worker's hello to the lock.
        self._worker_seq = 0
        self._task_seq = 0
        self.counters = ServiceCounters()
        self._stopping = threading.Event()
        self._threads: List[threading.Thread] = []
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "Coordinator":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="coordinator-accept", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the ``repro serve`` foreground)."""
        if self._accept_thread is None:
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
            for task in self._inflight.values():
                for client, index, _ in task.waiters:
                    client.put(message(
                        "error", message="coordinator shut down",
                        index=index, digest=task.digest, kind="shutdown"))
            self._queue.clear()
            self._inflight.clear()
        for worker in workers:
            try:
                worker.send(message("shutdown", reason="coordinator stopping"))
            except (WireError, OSError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass

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
                send_message(sock, self._status_reply())
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
        if hello.get("schema") != WIRE_SCHEMA:
            send_message(sock, message(
                "error",
                message=f"wire schema mismatch: {hello.get('schema')!r} "
                        f"!= {WIRE_SCHEMA!r}"))
            sock.close()
            return
        with self._mu:
            self._worker_seq += 1
            worker = _WorkerConn(f"w{self._worker_seq}", sock, hello)
            self._workers[worker.worker_id] = worker
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
            self._inflight.pop(task.digest, None)
            try:
                result = ScenarioResult.from_dict(msg["result"])
            except (TypeError, KeyError, ValueError) as err:
                # Undeserializable payload: treat like a crashed attempt.
                self._attempt_failed(
                    task, f"undecodable result from {worker.worker_id}: {err}")
                self._pump()
                return
            wall = float(msg.get("wall_seconds", 0.0))
            self.counters.executed += 1
            self.counters.worker_done(worker.worker_id, wall)
            worker.tasks_done += 1
            for kind, n in (msg.get("failure_counts") or {}).items():
                self.counters.count_failure(kind, int(n))
            if self.cache is not None:
                self.cache.put(task.spec, result, wall_seconds=wall)
            report = dict(result=msg["result"], wall_seconds=wall,
                          worker=worker.worker_id,
                          attempts=task.attempts + 1, digest=task.digest)
            for client, index, deduped in task.waiters:
                client.put(message("report", index=index, cached=False,
                                   deduped=deduped, **report))
            self._pump()

    def _fail_task(self, worker: _WorkerConn, msg: Dict) -> None:
        """A *deterministic* worker-side failure: no requeue, it would
        fail identically anywhere (mirrors the local pool's treatment of
        ordinary exceptions vs. crashes)."""
        with self._mu:
            task = worker.busy.pop(msg["task_id"], None)
            if task is None:
                return
            self._inflight.pop(task.digest, None)
            self.counters.failed += 1
            self.counters.count_failure(msg.get("kind", "error"))
            for client, index, _ in task.waiters:
                client.put(message("error", message=msg["detail"],
                                   index=index, digest=task.digest,
                                   kind=msg.get("kind", "error")))
            self._pump()

    def _attempt_failed(self, task: _Task, detail: str) -> None:
        """One attempt died (worker loss / bad payload): requeue or give
        up, :class:`WorkerCrash` taxonomy.  Caller holds the lock."""
        task.attempts += 1
        task.assigned_to = None
        self.counters.count_failure(WorkerCrash.kind)
        if task.attempts >= self.max_attempts:
            self._inflight.pop(task.digest, None)
            self.counters.failed += 1
            for client, index, _ in task.waiters:
                client.put(message(
                    "error",
                    message=f"scenario {task.spec.display_name} "
                            f"(digest {task.digest[:12]}) lost its worker "
                            f"{task.attempts} time(s): {detail}",
                    index=index, digest=task.digest, kind=WorkerCrash.kind))
        else:
            self.counters.requeued += 1
            self._inflight[task.digest] = task
            self._queue.appendleft(task)

    def _lose_worker(self, worker: _WorkerConn, reason: str) -> None:
        with self._mu:
            if self._workers.pop(worker.worker_id, None) is None:
                return  # already reaped (shutdown)
            self.counters.workers_lost += 1
            for task in list(worker.busy.values()):
                self._attempt_failed(
                    task, f"worker {worker.worker_id} died ({reason})")
            worker.busy.clear()
            self._pump()
        try:
            worker.sock.close()
        except OSError:
            pass

    # -- scheduling --------------------------------------------------------
    def _pump(self) -> None:
        """Assign queued tasks to free worker slots.  Caller holds the
        lock; sends ride the per-worker send locks."""
        while self._queue:
            target = None
            for worker in sorted(self._workers.values(),
                                 key=lambda w: (len(w.busy), w.worker_id)):
                if len(worker.busy) < worker.slots:
                    target = worker
                    break
            if target is None:
                return
            task = self._queue.popleft()
            task.assigned_to = target.worker_id
            target.busy[task.task_id] = task
            try:
                target.send(message("task", task_id=task.task_id,
                                    spec=task.spec.to_wire(),
                                    repeat=task.repeat))
            except (WireError, OSError):
                # The send itself found the corpse; its reader thread will
                # run the full _lose_worker path.  Requeue just this task.
                target.busy.pop(task.task_id, None)
                self._attempt_failed(task, "send to worker failed")

    # -- clients -----------------------------------------------------------
    def _serve_client(self, sock: socket.socket, submit: Dict) -> None:
        t_start = time.perf_counter()
        repeat = int(submit.get("repeat", 1))
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
                self._enqueue(client, index, spec, repeat,
                              no_cache=no_cache, refresh=refresh,
                              stats=stats)
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
                 repeat: int, no_cache: bool, refresh: bool,
                 stats: Dict) -> None:
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
        if task is not None and task.repeat == repeat:
            self.counters.deduped += 1
            stats["deduped"] += 1
            task.waiters.append((client, index, True))
            return
        self._task_seq += 1
        task = _Task(f"t{self._task_seq}", spec, repeat)
        task.waiters.append((client, index, False))
        stats["executed"] += 1
        self._inflight[digest] = task
        self._queue.append(task)

    # -- status ------------------------------------------------------------
    def _status_reply(self) -> Dict:
        with self._mu:
            workers = [
                {"id": w.worker_id, "host": w.host, "pid": w.pid,
                 "slots": w.slots, "busy": len(w.busy),
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
@dataclass(frozen=True)
class ServedReport:
    """One streamed per-scenario report, as the coordinator served it."""

    index: int
    spec: ScenarioSpec
    result: ScenarioResult
    cached: bool
    deduped: bool
    wall_seconds: float
    worker: str
    attempts: int


class Submission:
    """One ``submit`` conversation: iterate to stream the reports.

    Reports arrive in *completion* order; :attr:`done` (the coordinator's
    closing stats frame, including the ``exec.service.*`` snapshot) is
    populated once iteration finishes.  Per-index failures are collected
    and raised as one :class:`ExecError` after the surviving reports have
    been yielded, so a partial sweep is still observable.
    """

    def __init__(self, specs: Sequence[ScenarioSpec], address: str, *,
                 repeat: int = 1, no_cache: bool = False,
                 refresh: bool = False, timeout: Optional[float] = None,
                 connect_retry_seconds: float = 0.0):
        self.specs = list(specs)
        self.done: Optional[Dict] = None
        self.failures: List[Dict] = []
        self._sock = connect(address, timeout=timeout,
                             retry_seconds=connect_retry_seconds)
        send_message(self._sock, message(
            "submit", specs=[s.to_wire() for s in self.specs],
            repeat=repeat, no_cache=no_cache, refresh=refresh))

    def __iter__(self):
        try:
            remaining = len(self.specs)
            while remaining > 0:
                msg = recv_message(self._sock)
                t = msg["t"]
                if t == "report":
                    remaining -= 1
                    index = msg["index"]
                    yield ServedReport(
                        index=index, spec=self.specs[index],
                        result=ScenarioResult.from_dict(msg["result"]),
                        cached=bool(msg["cached"]),
                        deduped=bool(msg["deduped"]),
                        wall_seconds=float(msg.get("wall_seconds", 0.0)),
                        worker=str(msg.get("worker", "")),
                        attempts=int(msg.get("attempts", 0)))
                elif t == "error":
                    remaining -= 1
                    self.failures.append(msg)
                    if "index" not in msg:
                        break  # submission-level error: nothing follows
                else:
                    raise WireError(f"unexpected frame {t!r} mid-stream")
            if self.done is None and len(self.specs) >= 0:
                msg = recv_message(self._sock)
                if msg["t"] == "done":
                    self.done = msg
        finally:
            self.close()
        if self.failures:
            first = self.failures[0]
            raise ExecError(
                f"{len(self.failures)} scenario(s) failed at the "
                f"coordinator; first [{first.get('kind', 'error')}]: "
                f"{first['message']}")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def submit_outcome(specs: Sequence[ScenarioSpec], address: str, *,
                   repeat: int = 1, no_cache: bool = False,
                   refresh: bool = False,
                   progress: Optional[ProgressFn] = None,
                   obs=None,
                   connect_retry_seconds: float = 0.0) -> SweepOutcome:
    """Submit a batch and reassemble the stream into a :class:`SweepOutcome`.

    The remote leg of :class:`~repro.exec.executor.RemoteExecutor`:
    outcomes land in spec order, results bitwise-identical to a local
    run; the coordinator's service counters become ``cache_stats``,
    ``failure_counts`` and the outcome's ``service`` snapshot, and are
    mirrored into ``obs`` as ``exec.service.*``.
    """
    specs = list(specs)
    t0 = time.perf_counter()
    total = len(specs)
    outcomes: List[Optional[TaskOutcome]] = [None] * total
    done_ct = 0
    sub = Submission(specs, address, repeat=repeat, no_cache=no_cache,
                     refresh=refresh,
                     connect_retry_seconds=connect_retry_seconds)
    for rep in sub:
        outcome = TaskOutcome(
            index=rep.index, spec=rep.spec, result=rep.result,
            wall_seconds=rep.wall_seconds, cached=rep.cached,
            attempts=rep.attempts, worker=-3, worker_id=rep.worker)
        outcomes[rep.index] = outcome
        done_ct += 1
        if progress is not None:
            progress(outcome, done_ct, total)
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
        wall_seconds=time.perf_counter() - t0,
        failure_counts=dict(service.get("failure_counts", {})),
        degraded=False,
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
