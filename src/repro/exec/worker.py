"""Worker of the sweep scheduler.

A :class:`Worker` connects to a coordinator (:mod:`repro.exec.service`),
registers with ``hello`` (wire schema and code-version salt, both
checked), and then executes the tasks it is handed one at a time, each
by calling :func:`repro.exec.pool.run_spec` directly.  It schedules
nothing and retries nothing: deadlines, backoff and the attempt budget
are the coordinator's.  The same class serves a multi-host service
(``repro workers``, one process per ``--count``) and a local ``--jobs N``
sweep: its launcher spawns :func:`worker_main` processes, and the calling
thread is one more worker (:meth:`Worker.register`, then
:meth:`Worker.run`, in process).

Failure split:

* a **deterministic** failure (the simulation raised) is reported as a
  ``task_error`` frame with the traceback — rerunning it elsewhere would
  fail identically, so the coordinator fails the task's waiters instead
  of requeueing;
* the worker *process dying* (crash, kill, OOM) is detected by the
  coordinator as a connection/heartbeat loss, a *wedged* simulation as a
  deadline overrun; either way the task is requeued on another worker —
  the worker does not get a vote.

A dedicated heartbeat thread keeps frames flowing while a long
simulation runs, which is what lets the coordinator use a plain receive
timeout as its liveness probe.  A worker keeps no result cache: every
task that reaches it is a coordinator-side miss or a forced re-run
(``refresh``), so it always executes.
"""

from __future__ import annotations

import os
import socket
import threading
import traceback
from typing import Optional

from .cache import code_version_salt
from .chaos import worker_fault
from .pool import run_spec
from .spec import ScenarioSpec
from .wire import (
    WIRE_SCHEMA,
    WireError,
    connect,
    message,
    recv_message,
    send_message,
)

#: How long a freshly launched worker keeps retrying the coordinator
#: address before giving up (covers "worker started first" races).
DEFAULT_CONNECT_RETRY_SECONDS = 10.0


class Worker:
    """One worker: a connection, a heartbeat, one simulation at a time.

    ``run()`` blocks until the coordinator says ``shutdown`` or the
    connection drops; ``start()``/``stop()`` wrap it in a thread for
    in-process embedding (tests, and the calling thread of a local
    sweep — which :func:`repro.exec.pool.run_specs` only makes a worker
    when no chaos plan is active: the plan's kills are ``os._exit``).
    """

    def __init__(self, address: str, *,
                 connect_retry_seconds: float = DEFAULT_CONNECT_RETRY_SECONDS):
        self.address = address
        self.connect_retry_seconds = connect_retry_seconds
        self.worker_id: Optional[str] = None
        self.tasks_done = 0
        self._sock: Optional[socket.socket] = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

    # -- protocol ----------------------------------------------------------
    def _send(self, msg) -> None:
        with self._send_lock:
            send_message(self._sock, msg)

    def register(self) -> None:
        """Connect, say hello, read the welcome.  :meth:`run` does this
        itself; calling it first fixes this worker's place in the
        coordinator's registration order (its timeline track)."""
        self._sock = connect(self.address,
                             retry_seconds=self.connect_retry_seconds)
        self._send(message("hello", schema=WIRE_SCHEMA, role="worker",
                           host=socket.gethostname(), pid=os.getpid(),
                           salt=code_version_salt()))
        welcome = recv_message(self._sock)
        if welcome["t"] == "error":
            raise WireError(f"coordinator refused this worker: "
                            f"{welcome['message']}")
        if welcome["t"] != "welcome":
            raise WireError(f"expected welcome, got {welcome['t']!r}")
        if welcome["schema"] != WIRE_SCHEMA:
            raise WireError(
                f"coordinator speaks {welcome['schema']!r}, "
                f"this worker {WIRE_SCHEMA!r}")
        self.worker_id = welcome["worker_id"]
        self._heartbeat_interval = float(
            welcome.get("heartbeat_interval", 1.0))

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                self._send(message("heartbeat"))
            except (WireError, OSError):
                return  # connection is gone; the main loop notices too

    def _execute(self, task) -> None:
        """Run one leased task and report."""
        spec = ScenarioSpec.from_wire(task["spec"])
        digest = spec.config_digest()
        try:
            worker_fault(digest, int(task.get("attempt", 1)))
            result, wall = run_spec(spec)
        except Exception as err:
            # Whatever the simulation raised is a property of the spec,
            # not of this worker: report it and keep serving.
            self._send(message(
                "task_error", task_id=task["task_id"], digest=digest,
                kind=getattr(err, "kind", None) or "error",
                detail=f"scenario {spec.display_name} failed in its "
                       f"worker:\n{traceback.format_exc()}"))
            return
        self.tasks_done += 1
        self._send(message(
            "result", task_id=task["task_id"], digest=digest,
            result=result.to_dict(), wall_seconds=wall))

    # -- lifecycle ---------------------------------------------------------
    def run(self) -> None:
        """Serve until ``shutdown`` / connection loss / :meth:`stop`."""
        if self.worker_id is None:
            self.register()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, args=(self._heartbeat_interval,),
            name=f"worker-{self.worker_id}-heartbeat", daemon=True)
        self._heartbeat_thread.start()
        try:
            while not self._stop.is_set():
                try:
                    msg = recv_message(self._sock)
                    if msg["t"] == "task":
                        self._execute(msg)
                    elif msg["t"] == "shutdown":
                        return
                except (WireError, OSError):
                    # Coordinator gone, stop() closed the socket, or this
                    # worker was dropped (deadline) while it computed.
                    return
        finally:
            self._stop.set()
            try:
                self._sock.close()
            except OSError:
                pass

    def start(self) -> "Worker":
        """Run in a daemon thread (in-process embedding)."""
        self._thread = threading.Thread(
            target=self.run, name="service-worker", daemon=True)
        self._thread.start()
        return self

    def stop(self, join_timeout: float = 5.0) -> None:
        """Disconnect and (when started via :meth:`start`) join."""
        self._stop.set()
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(join_timeout)

    def __enter__(self) -> "Worker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def worker_main(address: str,
                connect_retry_seconds: float = DEFAULT_CONNECT_RETRY_SECONDS,
                ) -> None:
    """Process entry point for ``repro workers`` and for the launcher of
    a local sweep (spawn-friendly: module level, only picklable
    arguments)."""
    Worker(address, connect_retry_seconds=connect_retry_seconds).run()
