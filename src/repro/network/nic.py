"""Per-node network interface.

A :class:`Nic` separates incoming *requests* (the ``inbox``, consumed by
the node's resident servers) from *replies* (handed, by ``req_id``, to
whoever issued the matching request), both inside the delivering event.
This mirrors TreadMarks, where requests arrive via SIGIO at any time
while the main thread may itself be blocked waiting for a reply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..errors import NetworkError
from ..simcore import Channel, Simulator, Waitable
from ..simcore.process import Callback
from .message import Message, next_req_id

if TYPE_CHECKING:  # pragma: no cover
    from .switch import Switch


class ReplyWait(Waitable):
    """The reply to request ``req_id``, as an entry of the reply table."""

    __slots__ = ("_waiters", "_req_id")

    def __init__(self, nic: "Nic", req_id: int):
        self._waiters = nic._reply_waiters
        self._req_id = req_id

    def subscribe(self, callback: Callback) -> None:
        self._waiters[self._req_id] = callback

    def unsubscribe(self, callback: Callback) -> None:
        self._waiters.pop(self._req_id, None)


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
        #: ``req_id`` -> ``callback(reply, None)`` of each outstanding request.
        self._reply_waiters: Dict[int, Callback] = {}
        self.attached = True
        #: Request re-sends performed by this NIC's retransmit timers.
        self.retransmissions = 0
        #: Cached :meth:`_unreliable_wire` answer (None = not derivable
        #: yet).  The switch's ``faults`` setter resets it on install.
        self._wire_unreliable = None

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

    def request(self, msg: Message) -> Waitable:
        """Send a request and return a waitable for its reply.

        Usage inside a simulated process::

            reply = yield nic.request(Message(PAGE_REQ, src=me, dst=owner, ...))
        """
        if msg.req_id is None:
            msg.req_id = next_req_id()
        unreliable = self._unreliable_wire()
        self.send(msg)
        if unreliable:
            from .reliability import ReliableRequest

            return ReliableRequest(self, msg)
        return ReplyWait(self, msg.req_id)

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

    def _unreliable_wire(self) -> bool:
        """True when messages may be lost or duplicated in transit.

        Requests then go through :class:`ReliableRequest`.  The answer is
        evaluated on every request — the hottest path in the simulator —
        so static configurations are cached: a lossy wire stays lossy (the
        loss model is fixed at switch construction), a healthy wire with no
        fault state stays healthy until the switch's ``faults`` setter
        invalidates the cache, and a fault state that turned unreliable is
        latched (``LinkFaults.unreliable`` never clears).  Only the transient
        "fault state installed but still reliable" case re-derives the
        answer each call, since injection may flip it at any time.
        """
        cached = self._wire_unreliable
        if cached is not None:
            return cached
        switch = self.switch
        loss = switch.loss
        if loss is not None and loss.rate > 0:
            self._wire_unreliable = True
            return True
        faults = switch.faults
        if faults is None:
            self._wire_unreliable = False
            return False
        if faults.unreliable:
            self._wire_unreliable = True
            return True
        return False

    def count_retransmission(self) -> None:
        """Account one request re-send (local and switch-wide counters)."""
        self.retransmissions += 1
        self.switch.stats.count_retransmission()

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
