"""Directional link occupancy model.

Each node of the switched Ethernet has two directional links to the switch
(an uplink and a downlink).  Full duplex means the two directions never
contend with each other; *switched* means links of different nodes never
contend either.  A link serializes its own transmissions: the wire time of
a message occupies the link, so e.g. a master receiving pages from seven
slaves is limited by its downlink — exactly the "max traffic per link"
bottleneck §5.4 identifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Link:
    """One direction of one switch port."""

    name: str
    #: Wire seconds per payload byte.
    per_byte: float
    #: Time up to which the link is occupied by earlier transmissions.
    busy_until: float = 0.0
    #: Total payload+header bytes carried (lifetime).
    bytes_carried: int = 0
    #: Total messages carried (lifetime).
    messages_carried: int = 0
    #: Accumulated busy time (for utilization reporting).
    busy_time: float = field(default=0.0)

    def wire_time(self, nbytes: int) -> float:
        """Pure transmission time of ``nbytes`` on this link."""
        return nbytes * self.per_byte

    def occupy(self, start: float, nbytes: int,
               seconds: float | None = None) -> float:
        """Occupy the link from a precomputed ``start`` (joint reservation).

        The switch reserves uplink and downlink for the *same* slot
        (cut-through forwarding), so ``start`` is the max of every hop's
        ``busy_until`` and the send time.  The slot lasts the wire time of
        ``nbytes``, or ``seconds`` for a transfer priced at its own rate
        (a migration image).  Returns the slot end.

        The sanity check uses a tolerance *relative* to ``busy_until``:
        multi-hop reservations compute ``start`` as a max over several
        float sums, and once simulated time reaches thousands of seconds
        an absolute 1e-12 is below one ulp, rejecting exact-by-construction
        slots over pure rounding noise.
        """
        if start < self.busy_until - 1e-12 * max(1.0, abs(self.busy_until)):
            raise ValueError(
                f"link {self.name}: occupy start {start} before busy_until {self.busy_until}"
            )
        if seconds is None:
            end = start + self.wire_time(nbytes)
            seconds = end - start
        else:
            end = start + seconds
        self.busy_until = end
        self.busy_time += seconds
        self.bytes_carried += nbytes
        self.messages_carried += 1
        return end

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` this link spent transmitting."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0
