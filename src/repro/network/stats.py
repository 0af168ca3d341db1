"""Traffic accounting.

The paper reports network traffic as pages / MB / messages / diffs
(Table 1) and identifies **max traffic per link** as the key determinant of
adaptation cost (§5.4).  :class:`TrafficStats` tracks totals plus per-link
byte counters and supports snapshot/delta so an experiment can measure the
traffic attributable to one adaptation (the paper's §5.4 methodology:
statistics recorded from a chosen adaptation point onwards).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .message import DIFF_REPLY, PAGE_REPLY, Message

#: Kinds whose delivery counts one page (hoisted: record() runs per message).
_PAGE_KINDS = (PAGE_REPLY, "sc_data")


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

    def busiest_link(self) -> Optional[str]:
        """Name of the busiest directional link."""
        if not self.per_link_bytes:
            return None
        return max(self.per_link_bytes.items(), key=lambda kv: (kv[1], kv[0]))[0]


class TrafficStats:
    """Mutable traffic counters updated by the switch on every delivery."""

    def __init__(self, header_bytes: int):
        self.header_bytes = header_bytes
        self._snap = TrafficSnapshot()

    def record(self, msg: Message, uplink: str, downlink: str,
               via: tuple = ()) -> None:
        """Account one delivered message.

        ``via`` holds the intermediate (trunk) links the message crossed in
        a hierarchical topology; each carries the same wire bytes as the
        endpoint links.  The star topology has none.
        """
        wire = msg.size_bytes + self.header_bytes
        s = self._snap
        s.messages += 1
        s.bytes += wire
        s.by_kind_messages[msg.kind] += 1
        s.by_kind_bytes[msg.kind] += wire
        s.per_link_bytes[uplink] += wire
        s.per_link_bytes[downlink] += wire
        for link in via:
            s.per_link_bytes[link.name] += wire
        if msg.kind in _PAGE_KINDS:
            s.pages += 1
        elif msg.kind == DIFF_REPLY:
            s.diffs += int(msg.payload.get("n_diffs", 1)) if isinstance(msg.payload, dict) else 1

    def count_drop(self) -> None:
        """Account one message lost on the wire."""
        self._snap.dropped += 1

    def count_cut(self) -> None:
        """Account one message discarded at a partitioned path."""
        self._snap.cut += 1

    def count_duplicate(self) -> None:
        """Account one injected duplicate delivery."""
        self._snap.duplicated += 1

    def count_delay(self) -> None:
        """Account one injected delayed delivery."""
        self._snap.delayed += 1

    def count_retransmission(self) -> None:
        """Account one request re-send by a retransmit timer."""
        self._snap.retransmissions += 1

    def snapshot(self) -> TrafficSnapshot:
        """A copy of the current counters."""
        s = self._snap
        return TrafficSnapshot(
            messages=s.messages,
            bytes=s.bytes,
            pages=s.pages,
            diffs=s.diffs,
            dropped=s.dropped,
            cut=s.cut,
            duplicated=s.duplicated,
            delayed=s.delayed,
            retransmissions=s.retransmissions,
            per_link_bytes=Counter(s.per_link_bytes),
            by_kind_messages=Counter(s.by_kind_messages),
            by_kind_bytes=Counter(s.by_kind_bytes),
        )
