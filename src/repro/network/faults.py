"""What the wire does to a message: the one wire-fault model.

TreadMarks runs over UDP (§5.1): a message can be lost, and a request
times out and is re-sent (:class:`~repro.network.nic.ReplyWait`).
:class:`LinkFaults` is consulted by :meth:`Switch.transmit
<repro.network.switch.Switch.transmit>` and nothing else, in this order:

* a *cut* silently discards everything between a node pair (a partition
  seen from those two endpoints);
* *loss* drops a seeded fraction of messages (``NetworkParams.loss_rate``:
  the switch builds the object itself when the rate is positive);
* *delay* holds a seeded fraction back by a fixed time;
* *duplicate* delivers a seeded fraction twice.

A *degraded* port adds fixed latency to every message touching it.  Cuts
and degradation hit every message — a partition does not care about
message kinds.  Loss, delay and duplication hit the idempotent
:data:`DATA_PLANE` only: barrier/fork/lock/GC traffic is not idempotent,
and the real system's dedup machinery for it adds nothing to the paper's
questions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

import numpy as np

from ..errors import FaultError
from . import message as mk
from .message import Message

#: Message kinds loss, delay and duplication apply to: page/diff requests
#: and replies — large, idempotent, and the overwhelming share of packets.
DATA_PLANE: FrozenSet[str] = frozenset(
    {mk.PAGE_REQ, mk.PAGE_REPLY, mk.DIFF_REQ, mk.DIFF_REPLY,
     mk.CKPT_PAGE_REQ, mk.CKPT_PAGE_REPLY}
)


def _rate(what: str, rate: float) -> float:
    if not 0.0 <= rate < 1.0:
        raise FaultError(f"{what} rate must be in [0, 1): {rate}")
    return rate


class LinkFaults:
    """Mutable wire-fault state consulted by :meth:`Switch.transmit`.

    Loss draws from its own stream, seeded by ``loss_seed``; delay and
    duplication share the ``seed`` stream.  So a loss decision never
    consumes a draw meant for delay or duplication, nor the other way round.
    """

    def __init__(self, loss_rate: float = 0.0, loss_seed: int = 0xD20,
                 seed: int = 0xFA17):
        self.loss_rate = _rate("loss", loss_rate)
        #: Partitioned node pairs (frozenset of the two endpoints).
        self._cut: Set[FrozenSet[int]] = set()
        #: node id -> extra one-way latency in seconds.
        self._degraded: Dict[int, float] = {}
        self.dup_rate = 0.0
        self.delay_rate = 0.0
        self.delay_seconds = 0.0
        self._loss_rng = np.random.default_rng(loss_seed)
        self._rng = np.random.default_rng(seed)
        #: True once a message may be lost, cut, delayed or duplicated.
        #: Latched, never cleared: requests issued while it is True wait
        #: with a retransmit timer and their replies are deduplicated.
        #: Clearing it mid-run would strand in-flight requests on the
        #: wrong regime, so a wire that was ever unreliable stays so.
        self.unreliable = loss_rate > 0.0

    # -- operator actions ----------------------------------------------
    def cut(self, a: int, b: int) -> None:
        """Partition nodes ``a`` and ``b``: all traffic between them dies."""
        if a == b:
            raise FaultError(f"cannot cut node {a} from itself")
        self._cut.add(frozenset((a, b)))
        self.unreliable = True

    def heal(self, a: int, b: int) -> None:
        """Undo a cut (messages already discarded stay lost)."""
        self._cut.discard(frozenset((a, b)))

    def degrade(self, node_id: int, extra_latency: float) -> None:
        """Add ``extra_latency`` seconds to every message via ``node_id``."""
        if extra_latency < 0:
            raise FaultError(f"negative degradation: {extra_latency}")
        self._degraded[node_id] = extra_latency

    def restore(self, node_id: int) -> None:
        """Remove the degradation of ``node_id``'s port."""
        self._degraded.pop(node_id, None)

    def set_duplicate(self, rate: float) -> None:
        """Duplicate this fraction of data-plane messages."""
        self.dup_rate = _rate("duplicate", rate)
        if rate > 0:
            self.unreliable = True

    def set_delay(self, rate: float, seconds: float) -> None:
        """Delay this fraction of data-plane messages by ``seconds``."""
        _rate("delay", rate)
        if seconds < 0:
            raise FaultError(f"negative delay: {seconds}")
        self.delay_rate = rate
        self.delay_seconds = seconds
        if rate > 0:
            self.unreliable = True

    # -- queries from Switch.transmit ------------------------------------
    def blocked(self, src: int, dst: int) -> bool:
        """Is the src<->dst path currently cut?"""
        return bool(self._cut) and frozenset((src, dst)) in self._cut

    def dropped(self, msg: Message) -> bool:
        """Is this message lost on the wire?"""
        if self.loss_rate <= 0.0 or msg.kind not in DATA_PLANE:
            return False
        return self._loss_rng.random() < self.loss_rate

    def extra_latency(self, src: int, dst: int) -> float:
        """Added one-way latency from degraded endpoints."""
        if not self._degraded:
            return 0.0
        return self._degraded.get(src, 0.0) + self._degraded.get(dst, 0.0)

    def delay_for(self, msg: Message) -> float:
        """Seconds of injected delay for this message (0 = on time)."""
        if self.delay_rate <= 0.0 or msg.kind not in DATA_PLANE:
            return 0.0
        if self._rng.random() < self.delay_rate:
            return self.delay_seconds
        return 0.0

    def duplicate(self, msg: Message) -> bool:
        """Should a second copy of this message be delivered?"""
        if self.dup_rate <= 0.0 or msg.kind not in DATA_PLANE:
            return False
        return self._rng.random() < self.dup_rate
