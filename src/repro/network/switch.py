"""Switched full-duplex Ethernet model.

The testbed is a *switched* 100 Mbps Ethernet: every node has a private
full-duplex port, so the only contention is per-port serialization.  A
message from ``p`` to ``q`` jointly reserves ``p``'s uplink and ``q``'s
downlink (cut-through) and arrives one latency plus one wire time later::

    start   = max(now, up(p).busy_until, down(q).busy_until)
    arrival = start + one_way_latency + payload_bytes * per_byte

This reproduces the property §5.4 builds on: traffic between disjoint node
pairs is fully parallel, while fan-in to one node (e.g. the master
collecting a leaver's pages) serializes on that node's downlink.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import NetworkParams
from ..errors import NetworkError
from ..simcore import Simulator
from .faults import LinkFaults
from .link import Link
from .message import Message
from .nic import Nic
from .stats import TrafficStats


class Switch:
    """The star-topology interconnect of the simulated NOW."""

    def __init__(self, sim: Simulator, params: NetworkParams | None = None):
        self.sim = sim
        self.params = params or NetworkParams()
        self.params.validate()
        self.nics: Dict[int, Nic] = {}
        self.uplinks: Dict[int, Link] = {}
        self.downlinks: Dict[int, Link] = {}
        self.stats = TrafficStats(header_bytes=self.params.header_bytes)
        #: What the wire does to a message (None = a healthy wire).  A
        #: lossy wire gets it here; a :class:`~repro.faults.FaultInjector`
        #: installs one, or adds its faults to this one.
        self.faults: Optional[LinkFaults] = None
        if self.params.loss_rate > 0:
            self.faults = LinkFaults(self.params.loss_rate, self.params.loss_seed)
        #: Calls of :meth:`transmit_flight` (fan-out waves, a tree leaf's
        #: empty one included) / legs they carried — host-side counters
        #: only (never part of simulated state); the benchmark reads them
        #: as ``network.flight_*``.
        self.flights_compiled = 0
        self.flight_legs = 0

    # -- topology -----------------------------------------------------------
    def attach(self, node_id: int) -> Nic:
        """Create (or re-activate) the port for ``node_id``."""
        if node_id in self.nics:
            nic = self.nics[node_id]
            nic.reattach()
            return nic
        nic = Nic(self.sim, self, node_id)
        self.nics[node_id] = nic
        per_byte = self.params.per_byte
        self.uplinks[node_id] = Link(name=f"up{node_id}", per_byte=per_byte)
        self.downlinks[node_id] = Link(name=f"down{node_id}", per_byte=per_byte)
        return nic

    def detach(self, node_id: int) -> None:
        """Deactivate the port for ``node_id`` (node withdrew)."""
        if node_id not in self.nics:
            raise NetworkError(f"detach of unknown node {node_id}")
        self.nics[node_id].detach()

    # -- transmission ---------------------------------------------------------
    def route(self, src: int, dst: int) -> tuple:
        """``(trunk links, trace suffix)`` of the path from ``src`` to ``dst``.

        The trunks are the links a message crosses *between* its source
        uplink and its destination downlink; one switch has none.
        """
        return (), ""

    def transmit(self, msg: Message) -> float:
        """Deliver ``msg``; returns the simulated arrival time.

        The one wire model: whatever the topology (:meth:`route`), this is
        the only place that validates the destination, reserves links,
        prices latency, accounts traffic and applies loss and faults.
        """
        if msg.dst not in self.nics:
            raise NetworkError(f"message to unknown node {msg.dst}: {msg!r}")
        dst_nic = self.nics[msg.dst]
        if not dst_nic.attached:
            raise NetworkError(f"message to detached node {msg.dst}: {msg!r}")

        if msg.src == msg.dst:
            # Local delivery never touches the wire (and costs no wire time).
            msg.arrived_at = self.sim.now
            self.sim.schedule(0.0, (dst_nic.deliver, msg))
            return self.sim.now

        params = self.params
        size_bytes = msg.size_bytes
        wire_bytes = size_bytes + params.header_bytes
        up = self.uplinks[msg.src]
        down = self.downlinks[msg.dst]
        trunks, route_note = self.route(msg.src, msg.dst)
        # Joint cut-through reservation: every link of the path gets the
        # same slot, so a message waits for the *most* backlogged one.
        now = self.sim.now
        up_busy = up.busy_until
        down_busy = down.busy_until
        start = now if now >= up_busy else up_busy
        if down_busy > start:
            start = down_busy
        for link in trunks:
            if link.busy_until > start:
                start = link.busy_until
        # The two port links are inlined from Link.occupy (two method
        # calls per message add up on this path; ``start`` >= every
        # link's busy_until by construction, so the stale-start guard
        # inside occupy is vacuous here).
        end = start + wire_bytes * up.per_byte
        busy = end - start
        up.busy_until = end
        up.busy_time += busy
        up.bytes_carried += wire_bytes
        up.messages_carried += 1
        down.busy_until = end
        down.busy_time += busy
        down.bytes_carried += wire_bytes
        down.messages_carried += 1
        for link in trunks:
            link.occupy(start, wire_bytes)
        # Latency is calibrated against the paper's 1-byte RTT of 126 µs,
        # which already includes header transmission — so only the payload
        # adds wire time here, while occupancy and traffic accounting above
        # include the header bytes.  Each trunk leads into one more switch.
        arrival = start + params.one_way_latency
        if trunks:
            arrival += len(trunks) * params.switch_hop_latency
        arrival += size_bytes * params.per_byte
        faults = self.faults
        if faults is not None:
            # Degraded ports add fixed latency on either endpoint's path.
            arrival += faults.extra_latency(msg.src, msg.dst)
        msg.arrived_at = arrival
        self.stats.record(msg, uplink=up.name, downlink=down.name, via=trunks)
        if faults is not None:
            if faults.blocked(msg.src, msg.dst):
                # the packet burned wire time but dies at the partition
                self.stats.count_cut()
                self.sim.tracer.emit("net", "cut", f"{msg.kind} {msg.src}->{msg.dst}")
                return arrival
            if faults.dropped(msg):
                # the packet burned wire time but never arrives
                self.stats.count_drop()
                self.sim.tracer.emit(
                    "net", "dropped", f"{msg.kind} {msg.src}->{msg.dst}"
                )
                return arrival
            delay = faults.delay_for(msg)
            if delay > 0.0:
                self.stats.count_delay()
                self.sim.tracer.emit(
                    "net", "delayed", f"{msg.kind} {msg.src}->{msg.dst} +{delay:.6f}s"
                )
                arrival += delay
                msg.arrived_at = arrival
            if faults.duplicate(msg):
                # a second copy trails the original by one latency
                self.stats.count_duplicate()
                self.sim.tracer.emit(
                    "net", "duplicated", f"{msg.kind} {msg.src}->{msg.dst}"
                )
                self.sim.at(
                    arrival + self.params.one_way_latency,
                    (dst_nic.deliver, msg),
                )
        self.sim.at(arrival, (dst_nic.deliver, msg))
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                "net", msg.kind, f"{msg.src}->{msg.dst} {wire_bytes}B{route_note}"
            )
        return arrival

    def transmit_flight(self, msgs, on_error=None, src_nic=None) -> None:
        """Transmit a fan-out wave: ``for m in msgs: self.transmit(m)``.

        One sender issues the legs back-to-back within one event (a FORK
        wave, a barrier release, a GC round — PROTOCOL.md §13); each leg
        is an ordinary :meth:`transmit`, so whatever the wire and the
        topology do to one message they do to a leg.

        ``on_error`` is called as ``on_error(msg, err)`` for a leg whose
        destination is unknown or detached (the remaining legs still
        fly); without it the error propagates from that leg.  ``src_nic``,
        when given, is checked per leg like :meth:`Nic.send` checks its
        attachment.
        """
        for msg in msgs:
            try:
                if src_nic is not None and not src_nic.attached:
                    raise NetworkError(
                        f"node {src_nic.node_id} NIC is detached"
                    )
                self.transmit(msg)
            except NetworkError as err:
                if on_error is None:
                    raise
                on_error(msg, err)
        self.flights_compiled += 1
        self.flight_legs += len(msgs)

    # -- convenience ----------------------------------------------------------
    def message_time(self, payload_bytes: int) -> float:
        """Uncontended one-way delivery time for a payload."""
        return self.params.message_time(payload_bytes + self.params.header_bytes)

    def iter_links(self):
        """Every directional link of the topology (uplinks then downlinks).

        Hierarchical topologies extend this with their trunk links; the
        scale bench and ``repro report --scale`` read per-link
        ``busy_time`` through it.
        """
        yield from self.uplinks.values()
        yield from self.downlinks.values()

    def link_report(self) -> dict:
        """``{link name: busy_time}`` for every link of the topology."""
        return {link.name: link.busy_time for link in self.iter_links()}
