"""Per-node network interface.

A :class:`Nic` separates incoming *requests* (the ``inbox``, consumed by
the node's resident servers) from *replies* (handed, by ``req_id``, to
whoever issued the matching request), both inside the delivering event.
This mirrors TreadMarks, where requests arrive via SIGIO at any time
while the main thread may itself be blocked waiting for a reply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..errors import NetworkError
from ..simcore import Channel, Simulator, Waitable, cancel
from ..simcore.process import Callback
from .message import Message

if TYPE_CHECKING:  # pragma: no cover
    from .switch import Switch

#: First retransmission timeout on an unreliable wire: a page round trip
#: is ~1.3 ms, and 4 ms gives slow replies room before the first re-send.
#: The timeout doubles per re-send, up to ``MAX_RTO``, so a congested
#: server is not buried under duplicates — without backoff, service
#: queues longer than the timeout trigger a retransmission collapse.
RTO = 4.0e-3
MAX_RTO = 128.0e-3
#: Re-sends before a request gives up on its peer.
MAX_RETRIES = 25


class ReplyWait(Waitable):
    """The reply to request ``msg``, as an entry of its NIC's reply table.

    Without ``rto`` and ``service`` the entry is the waiter's own callback,
    run in the event that delivers the reply.  With ``service`` — the
    requester's client-side service time, a page pull's install (§10) —
    the delivering event instead pushes the waiter's wake-up ``service``
    seconds later, so the waiter resumes once, with the reply, after both.
    With ``rto`` the request is re-sent (a fresh transmission with the
    same ``req_id``, so a late reply to an earlier copy still matches) each
    time ``rto`` passes without a reply, and ``rto`` doubles per re-send
    up to :data:`MAX_RTO` (a longer first ``rto`` is kept as given).  After
    ``retries`` re-sends the wait gives up its entry — a late reply then
    finds none and is dropped — and fails with :class:`NetworkError` at
    once.  Unsubscribing cancels whichever event is pending: the
    retransmission timer, or the wake-up.
    """

    __slots__ = ("_nic", "_msg", "_rto", "_retries", "_resends", "_service",
                 "_event", "_callback")

    def __init__(self, nic: "Nic", msg: Message, rto: Optional[float] = None,
                 retries: int = MAX_RETRIES, service: Optional[float] = None):
        self._nic = nic
        self._msg = msg
        self._rto = rto
        self._retries = retries
        self._resends = 0
        self._service = service
        #: The retransmission timer, then (with ``service``) the wake-up.
        self._event: Optional[list] = None
        self._callback: Optional[Callback] = None

    def subscribe(self, callback: Callback) -> None:
        if self._rto is None and self._service is None:
            self._nic._reply_waiters[self._msg.req_id] = callback
            return
        self._callback = callback
        self._nic._reply_waiters[self._msg.req_id] = self._on_reply
        if self._rto is not None:
            self._event = self._nic.sim.schedule(self._rto, self._on_timeout)

    def unsubscribe(self, callback: Callback) -> None:
        self._nic._reply_waiters.pop(self._msg.req_id, None)
        self._disarm()
        self._callback = None

    def _disarm(self) -> None:
        if self._event is not None:
            cancel(self._event)
            self._event = None

    def _on_reply(self, msg: Message, exc) -> None:
        self._disarm()
        cb, self._callback = self._callback, None
        if self._service is None:
            cb(msg, exc)
        else:
            sim = self._nic.sim
            self._event = sim._queue.push(sim.now + self._service, (cb, msg))

    def _on_timeout(self) -> None:
        # Forget the fired timer: it refers back to this wait, so keeping it
        # would leave a reference cycle behind a wait that gave up.
        self._event = None
        nic, msg = self._nic, self._msg
        if self._resends == self._retries:
            nic._reply_waiters.pop(msg.req_id, None)
            cb, self._callback = self._callback, None
            cb(None, NetworkError(
                f"request {msg.kind}#{msg.req_id} to node {msg.dst} "
                f"timed out after {self._retries} retries"
            ))
            return
        self._resends += 1
        self._rto = min(self._rto * 2, MAX_RTO)
        nic.switch.stats.retransmissions += 1
        try:
            nic.send(msg)
        except NetworkError:
            pass  # detached peer: keep waiting for the final timeout
        self._event = nic.sim.schedule(self._rto, self._on_timeout)


class Nic:
    """Network interface of one node.

    A request goes to the first resident server it is addressed to and
    waits in ``inbox`` while there is none (a joiner not started yet).  A
    reply that finds no reply-table entry — a duplicate, or its waiter
    timed out or was killed — is dropped: a ``req_id`` is never reused, so
    nobody could ever claim it.
    """

    def __init__(self, sim: Simulator, switch: "Switch", node_id: int):
        self.sim = sim
        self.switch = switch
        self.node_id = node_id
        #: Incoming requests no resident server has taken (yet).
        self.inbox = Channel(sim, name=f"nic{node_id}.inbox")
        #: Resident servers in waiter order: objects with a ``pid`` (read
        #: per message, adaptation renumbers it) and a ``take(msg)``.
        self.servers: list = []
        #: ``req_id`` -> ``callback(reply, None)`` of each outstanding
        #: request; written by :class:`ReplyWait` only.
        self._reply_waiters: Dict[int, Callback] = {}
        self.attached = True

    # -- sending ----------------------------------------------------------
    def send(self, msg: Message) -> float:
        """Transmit ``msg``; returns its scheduled arrival time."""
        if not self.attached:
            raise NetworkError(f"node {self.node_id} NIC is detached")
        if msg.src != self.node_id:
            raise NetworkError(
                f"message src {msg.src} sent through NIC of node {self.node_id}"
            )
        return self.switch.transmit(msg)

    def request(self, msg: Message, service: Optional[float] = None) -> Waitable:
        """Send a request and return a waitable for its reply, resuming
        its waiter ``service`` seconds after the reply arrives if given.

        On an unreliable wire (``LinkFaults.unreliable``) the wait
        retransmits.  Usage inside a simulated process::

            reply = yield nic.request(Message(PAGE_REQ, src=me, dst=owner, ...))
        """
        if msg.req_id is None:
            msg.req_id = self.switch.next_req_id()
        faults = self.switch.faults
        rto = RTO if faults is not None and faults.unreliable else None
        self.send(msg)
        return ReplyWait(self, msg, rto, service=service)

    def serve(self, server) -> None:
        """Register ``server`` and hand it, in arrival order, the queued
        messages addressed to it."""
        self.servers.append(server)
        mine = lambda m: m.dst_pid is None or m.dst_pid == server.pid  # noqa: E731
        while (msg := self.inbox.try_recv(mine)) is not None:
            server.take(msg)

    def send_flight(self, msgs, on_error=None) -> None:
        """Transmit a fan-out wave: each message as :meth:`send` would, in
        order.  Our attachment is checked per leg inside
        :meth:`Switch.transmit_flight <repro.network.switch.Switch.transmit_flight>`,
        so ``on_error`` sees a detached sender once per leg.
        """
        self.switch.transmit_flight(msgs, on_error, src_nic=self)

    # -- delivery (called by the switch) -----------------------------------
    def deliver(self, msg: Message, _exc=None) -> None:
        """Hand an arriving message to its reply waiter or its server.

        ``_exc`` is unused; it makes ``deliver`` a valid tuple-action
        target (the event queue invokes ``(f, v)`` actions as
        ``f(v, None)``), so the switch schedules deliveries without
        allocating a closure per message.
        """
        if msg.is_reply:
            waiter = self._reply_waiters.pop(msg.req_id, None)
            if waiter is not None:
                waiter(msg, None)
            return
        dst_pid = msg.dst_pid
        servers = self.servers
        for server in servers:
            if dst_pid is None or dst_pid == server.pid:
                # Served: to the back of the waiter order, as a ``recv``
                # loop re-subscribing after every message would be.
                servers.remove(server)
                servers.append(server)
                server.take(msg)
                return
        self.inbox.put(msg)

    def detach(self) -> None:
        """Disconnect from the switch (node left the pool)."""
        self.attached = False

    def reattach(self) -> None:
        """Reconnect (node re-joined)."""
        self.attached = True
