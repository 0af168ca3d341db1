"""Centralized-manager, distributed-queue locks (§2, §5.1).

The master is the manager of every lock.  An acquire goes to the manager,
which forwards it to the tail of the lock's request chain; the previous
tail grants the lock directly to the requester when it releases (or at
once if it already has).  The grant carries the write notices the
requester has not seen — the LRC acquire.  The three-message path
(request, forward, grant) lands in the paper's measured 178–272 µs
acquisition window.

:class:`LockManager` is the master's chain bookkeeping; :func:`acquire`,
:func:`release` and :func:`on_forward` are every process's side, over its
``lock_states``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator

from ..errors import DsmError, ProtocolError
from ..network import message as mk
from ..network.message import Message
from .team import TeamView
from .vectorclock import VectorClock

if TYPE_CHECKING:  # pragma: no cover
    from .process import DsmProcess


class LockManager:
    """Per-lock chain-tail bookkeeping on the master."""

    def __init__(self, master: "DsmProcess"):
        self.master = master
        #: lock id -> pid of the last requester (tail of the chain).
        self._tails: Dict[int, int] = {}

    def on_request(self, msg: Message) -> None:
        """Forward a LOCK_REQ to the current chain tail."""
        lock_id = msg.payload["lock"]
        requester = msg.payload["pid"]
        vc = msg.payload["vc"]
        tail = self._tails.get(lock_id, TeamView.MASTER_PID)
        self._tails[lock_id] = requester
        self.master.send(
            mk.LOCK_FORWARD,
            tail,
            {"lock": lock_id, "requester": requester, "vc": vc},
            size=8 + self.master.vc_wire_bytes,
        )

    def reset(self) -> None:
        """Drop chain state (garbage collection starts a fresh epoch)."""
        self._tails.clear()


def _state(proc: "DsmProcess", lock_id: int) -> Dict[str, Any]:
    state = proc.lock_states.get(lock_id)
    if state is None:
        # The master conceptually holds (and has released) every lock at
        # epoch start — it carries one release "token".  Tokens count
        # completed tenures whose successor forward has not arrived yet:
        # a forward can race past our release *and* our re-request, so
        # matching forwards to releases needs explicit accounting.
        master = proc.is_master
        state = {
            "status": "released" if master else "idle",
            "pending": None,
            "tokens": 1 if master else 0,
        }
        proc.lock_states[lock_id] = state
    return state


def acquire(proc: "DsmProcess", lock_id: int) -> Generator:
    """Acquire a TreadMarks lock (an LRC acquire)."""
    t0 = proc.sim.now
    state = _state(proc, lock_id)
    if state["status"] in ("waiting", "held"):
        raise DsmError(f"{proc.name}: lock {lock_id} already requested/held")
    state["status"] = "waiting"
    proc.send(
        mk.LOCK_REQ,
        TeamView.MASTER_PID,
        {"lock": lock_id, "pid": proc.pid, "vc": proc.lrc.vc.snapshot()},
        size=8 + proc.vc_wire_bytes,
    )
    msg = yield proc.main_inbox.recv(
        match=lambda m: m.kind == mk.LOCK_GRANT and m.payload["lock"] == lock_id
    )
    proc.apply_notices(msg.payload["notices"], msg.payload["vc"])
    state["status"] = "held"
    proc.stats.locks_acquired += 1
    proc.stats.lock_wait_time += proc.sim.now - t0


def release(proc: "DsmProcess", lock_id: int) -> None:
    """Release a lock (an LRC release: closes the interval)."""
    state = _state(proc, lock_id)
    if state["status"] != "held":
        raise DsmError(f"{proc.name}: releasing lock {lock_id} it does not hold")
    proc.close_interval()
    state["status"] = "released"
    pending, state["pending"] = state["pending"], None
    if pending is not None:
        _grant(proc, lock_id, pending["requester"], pending["vc"])
    else:
        # no successor known yet: bank the release for the forward that
        # is still on its way (or may never come this epoch)
        state["tokens"] += 1


def _grant(proc: "DsmProcess", lock_id: int, requester: int,
           requester_vc: VectorClock) -> None:
    proc.send(*proc.notice_leg(
        mk.LOCK_GRANT, requester, proc.notices_unknown_to(requester_vc),
        {"lock": lock_id},
    ))


def on_forward(proc: "DsmProcess", msg: Message) -> None:
    """The manager forwarded a lock request to ``proc`` (last in the
    chain); called when its ``lock_service`` time on the handler CPU is
    over."""
    lock_id = msg.payload["lock"]
    requester = msg.payload["requester"]
    requester_vc = msg.payload["vc"]
    state = _state(proc, lock_id)
    if state["tokens"] > 0:
        # a completed tenure is waiting for exactly this forward (this
        # also covers our own request chaining back to us, and the
        # master's epoch-start conceptual release)
        state["tokens"] -= 1
        _grant(proc, lock_id, requester, requester_vc)
    elif state["status"] in ("waiting", "held"):
        if state["pending"] is not None:
            raise ProtocolError(f"{proc.name}: two pending forwards for lock {lock_id}")
        state["pending"] = {"requester": requester, "vc": requester_vc}
    else:
        raise ProtocolError(
            f"{proc.name}: forwarded lock {lock_id} with no tenure to match"
        )
