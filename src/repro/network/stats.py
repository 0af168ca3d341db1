"""Traffic accounting.

The paper reports network traffic as pages / MB / messages / diffs
(Table 1) and identifies **max traffic per link** as the key determinant of
adaptation cost (§5.4).  :class:`TrafficStats` tracks totals and per-kind
counters, reads per-link bytes from the links, and supports snapshot/delta
so an experiment can measure the traffic attributable to one adaptation
(the paper's §5.4 methodology: statistics recorded from a chosen
adaptation point onwards).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List

from .link import Link
from .message import DIFF_REPLY, PAGE_REPLY

#: Kinds whose delivery counts one page.
PAGE_KINDS = (PAGE_REPLY, "sc_data")


@dataclass(slots=True)
class TrafficSnapshot:
    """Immutable view of the counters at one instant."""

    messages: int = 0
    bytes: int = 0
    pages: int = 0
    diffs: int = 0
    #: Messages the lossy wire dropped (``LinkFaults.dropped``).
    dropped: int = 0
    #: Messages discarded at a cut (partitioned) switch path.
    cut: int = 0
    #: Extra copies delivered by duplicate injection.
    duplicated: int = 0
    #: Messages delivered late by delay injection.
    delayed: int = 0
    #: Request re-sends performed by :class:`ReplyWait` timers.
    retransmissions: int = 0
    per_link_bytes: Counter = field(default_factory=Counter)
    by_kind_messages: Counter = field(default_factory=Counter)
    by_kind_bytes: Counter = field(default_factory=Counter)

    def delta(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        """Traffic accumulated since ``earlier``."""
        return TrafficSnapshot(
            messages=self.messages - earlier.messages,
            bytes=self.bytes - earlier.bytes,
            pages=self.pages - earlier.pages,
            diffs=self.diffs - earlier.diffs,
            dropped=self.dropped - earlier.dropped,
            cut=self.cut - earlier.cut,
            duplicated=self.duplicated - earlier.duplicated,
            delayed=self.delayed - earlier.delayed,
            retransmissions=self.retransmissions - earlier.retransmissions,
            per_link_bytes=Counter(
                {
                    k: v - earlier.per_link_bytes.get(k, 0)
                    for k, v in self.per_link_bytes.items()
                    if v - earlier.per_link_bytes.get(k, 0)
                }
            ),
            by_kind_messages=Counter(
                {
                    k: v - earlier.by_kind_messages.get(k, 0)
                    for k, v in self.by_kind_messages.items()
                    if v - earlier.by_kind_messages.get(k, 0)
                }
            ),
            by_kind_bytes=Counter(
                {
                    k: v - earlier.by_kind_bytes.get(k, 0)
                    for k, v in self.by_kind_bytes.items()
                    if v - earlier.by_kind_bytes.get(k, 0)
                }
            ),
        )

    @property
    def megabytes(self) -> float:
        """Traffic in MB (decimal, as the paper reports)."""
        return self.bytes / 1.0e6

    def max_link_bytes(self) -> int:
        """Bytes on the busiest directional link — the §5.4 bottleneck metric."""
        return max(self.per_link_bytes.values(), default=0)


class TrafficStats:
    """Traffic totals and per-kind counters, updated once per message.

    The per-link ledger is the :class:`~repro.network.link.Link` objects
    themselves: :meth:`snapshot` reads ``per_link_bytes`` from ``links()``
    (the switch's ``iter_links``), so no byte is counted twice.
    :meth:`Switch.transmit <repro.network.switch.Switch.transmit>` inlines
    :meth:`record`; every other sender (a migration image) calls it.
    """

    def __init__(self, links: Callable[[], Iterable[Link]]):
        self._links = links
        self.messages = 0
        self.bytes = 0
        self.pages = 0
        self.diffs = 0
        self.dropped = 0
        self.cut = 0
        self.duplicated = 0
        self.delayed = 0
        self.retransmissions = 0
        #: ``{kind: [messages, bytes]}`` in first-seen order.
        self.by_kind: Dict[str, List[int]] = {}

    def record(self, kind: str, wire_bytes: int, payload: Any = None) -> None:
        """Account one message of ``kind`` carrying ``wire_bytes``."""
        self.messages += 1
        self.bytes += wire_bytes
        cell = self.by_kind.get(kind)
        if cell is None:
            cell = self.by_kind[kind] = [0, 0]
        cell[0] += 1
        cell[1] += wire_bytes
        if kind in PAGE_KINDS:
            self.pages += 1
        elif kind == DIFF_REPLY:
            self.diffs += payload["n_diffs"]

    def snapshot(self) -> TrafficSnapshot:
        """A copy of the current counters."""
        by_kind = self.by_kind
        return TrafficSnapshot(
            messages=self.messages,
            bytes=self.bytes,
            pages=self.pages,
            diffs=self.diffs,
            dropped=self.dropped,
            cut=self.cut,
            duplicated=self.duplicated,
            delayed=self.delayed,
            retransmissions=self.retransmissions,
            per_link_bytes=Counter({link.name: link.bytes_carried
                                    for link in self._links() if link.bytes_carried}),
            by_kind_messages=Counter({k: cell[0] for k, cell in by_kind.items()}),
            by_kind_bytes=Counter({k: cell[1] for k, cell in by_kind.items()}),
        )
