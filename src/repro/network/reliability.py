"""Message loss and request retransmission (the UDP reality of §5.1).

TreadMarks runs over UDP: requests time out and are retransmitted.  The
simulated switch can drop *data-plane* messages (page/diff requests and
replies — large, idempotent, and the overwhelming share of packets) with
a seeded loss model; :class:`ReliableRequest` wraps a reply wait with a
retransmit timer, so protocol runs survive the losses with nothing but
added latency.

Control-plane messages (barrier/fork/lock/GC traffic) are excluded from
the loss model: the real system retransmits those too, but they are not
idempotent, and modelling their dedup machinery adds nothing to the
paper's questions.  The split is configurable via ``LossModel.kinds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

import numpy as np

from ..simcore import Waitable
from . import message as mk
from .message import Message

#: Message kinds subject to loss by default: the idempotent data plane.
DATA_PLANE: FrozenSet[str] = frozenset(
    {mk.PAGE_REQ, mk.PAGE_REPLY, mk.DIFF_REQ, mk.DIFF_REPLY,
     mk.CKPT_PAGE_REQ, mk.CKPT_PAGE_REPLY}
)

#: Initial retransmission timeout: a page round trip is ~1.3 ms; 4 ms
#: gives slow replies room before the first duplicate goes out.  The
#: timeout doubles per retry (capped) so a congested server is not buried
#: under duplicates — without backoff, service queues longer than the RTO
#: trigger a classic retransmission collapse.
DEFAULT_RTO = 4.0e-3
MAX_RTO = 128.0e-3


@dataclass
class LossModel:
    """Seeded, per-message drop decisions for the switch."""

    rate: float = 0.0
    seed: int = 0xD20
    kinds: FrozenSet[str] = DATA_PLANE
    dropped: int = 0
    _rng: Optional[np.random.Generator] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def should_drop(self, msg: Message) -> bool:
        """Decide (deterministically, given the seed) whether to drop."""
        if self.rate <= 0.0 or msg.kind not in self.kinds:
            return False
        if float(self._rng.random()) < self.rate:
            self.dropped += 1
            return True
        return False


class ReliableRequest(Waitable):
    """A reply wait that retransmits the request on timeout.

    Behaves exactly like the plain :class:`~repro.network.nic.ReplyWait`
    when nothing is lost; every ``rto`` without a reply, the original
    request message is re-sent (a fresh transmission with the same
    ``req_id``, so a late original reply still matches).  The first reply
    takes the NIC's reply-table entry with it, so duplicates find none
    and are dropped.
    """

    def __init__(self, nic, msg: Message, rto: float = DEFAULT_RTO,
                 max_retries: int = 25):
        self._nic = nic
        self._msg = msg
        self._rto = rto
        self._max_retries = max_retries
        self._timer = None
        self._callback = None
        self._retries = 0

    def subscribe(self, callback) -> None:
        self._callback = callback
        self._nic._reply_waiters[self._msg.req_id] = self._on_reply
        self._arm_timer()

    def unsubscribe(self, callback) -> None:
        self._nic._reply_waiters.pop(self._msg.req_id, None)
        self._disarm_timer()
        self._callback = None

    # -- internals ---------------------------------------------------------
    def _arm_timer(self) -> None:
        backoff = min(self._rto * (2 ** self._retries), MAX_RTO)
        self._timer = self._nic.sim.schedule(backoff, self._on_timeout)

    def _disarm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_reply(self, msg, exc) -> None:
        self._disarm_timer()
        cb, self._callback = self._callback, None
        cb(msg, exc)

    def _on_timeout(self) -> None:
        from ..errors import NetworkError

        if self._callback is None:
            return
        self._retries += 1
        if self._retries > self._max_retries:
            # The peer is unreachable: surface it rather than spin forever.
            # Giving up the reply-table entry here is essential — otherwise
            # a late duplicate reply would be delivered to a waiter that
            # has long since errored out.
            self._nic._reply_waiters.pop(self._msg.req_id, None)
            cb, self._callback = self._callback, None
            cb(None, NetworkError(
                f"request {self._msg.kind}#{self._msg.req_id} to node "
                f"{self._msg.dst} timed out after {self._max_retries} retries"
            ))
            return
        self._nic.count_retransmission()
        try:
            self._nic.send(self._msg)
        except NetworkError:
            pass  # detached peer: keep waiting for the final timeout
        self._arm_timer()
