"""Per-node network interface.

A :class:`Nic` separates incoming *requests* (served by the node's handler
loop) from *replies* (routed back to the coroutine that issued the matching
request).  This mirrors TreadMarks, where requests arrive via SIGIO at any
time while the main thread may itself be blocked waiting for a reply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import NetworkError
from ..simcore import Channel, Simulator, Waitable
from .message import Message, next_req_id

if TYPE_CHECKING:  # pragma: no cover
    from .switch import Switch


class Nic:
    """Network interface of one node."""

    def __init__(self, sim: Simulator, switch: "Switch", node_id: int):
        self.sim = sim
        self.switch = switch
        self.node_id = node_id
        #: Incoming requests, consumed by the node's server loop.
        self.inbox = Channel(sim, name=f"nic{node_id}.inbox")
        #: Incoming replies, matched by ``req_id``.
        self.replies = Channel(sim, name=f"nic{node_id}.replies")
        self.attached = True
        #: Outstanding reliable request ids (duplicate replies are dropped).
        self._pending_reqs: set = set()
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
        rid = msg.req_id
        if self._unreliable_wire():
            from .reliability import ReliableRequest

            self._pending_reqs.add(rid)
            self.send(msg)
            return ReliableRequest(self, msg)
        self.send(msg)
        return self.replies.recv(match=lambda m, rid=rid: m.req_id == rid)

    def send_flight(self, msgs, on_error=None) -> None:
        """Transmit a fan-out wave: each message as :meth:`send` would, in
        order.  Our attachment is checked per leg inside
        :meth:`Switch.transmit_flight <repro.network.switch.Switch.transmit_flight>`,
        so ``on_error`` sees a detached sender once per leg.
        """
        self.switch.transmit_flight(msgs, on_error, src_nic=self)

    def _unreliable_wire(self) -> bool:
        """True when messages may be lost or duplicated in transit.

        Requests then go through :class:`ReliableRequest` and the
        outstanding-request table filters duplicate replies.  The answer
        is evaluated on every request *and* every reply delivery — the
        hottest path in the simulator — so static configurations are
        cached: a lossy wire stays lossy (the loss model is fixed at
        switch construction), a healthy wire with no fault state stays
        healthy until the switch's ``faults`` setter invalidates the
        cache, and a fault state that turned unreliable is latched
        (``LinkFaults.unreliable`` never clears).  Only the transient
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
    def _complete_request(self, req_id: int) -> None:
        self._pending_reqs.discard(req_id)

    def deliver(self, msg: Message, _exc=None) -> None:
        """Route an arriving message to the proper queue.

        ``_exc`` is unused; it makes ``deliver`` a valid tuple-action
        target (the event queue invokes ``(f, v)`` actions as
        ``f(v, None)``), so the switch schedules deliveries without
        allocating a closure per message.
        """
        if msg.is_reply:
            if (
                self._unreliable_wire()
                and msg.req_id is not None
                and msg.req_id not in self._pending_reqs
            ):
                return  # duplicate reply to a retransmitted/injected request
            self.replies.put(msg)
        else:
            self.inbox.put(msg)

    def detach(self) -> None:
        """Disconnect from the switch (node left the pool)."""
        self.attached = False

    def reattach(self) -> None:
        """Reconnect (node re-joined)."""
        self.attached = True
