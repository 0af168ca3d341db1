"""Pluggable interconnect topologies (PROTOCOL.md §11).

The paper's testbed is a single switched full-duplex Ethernet segment —
the :class:`~repro.network.switch.Switch` star, which stays the default
and the bitwise-identity reference.  Past a few dozen nodes a single
switch is physically implausible and analytically uninteresting: every
port still gets its private pair of links, so the star never models the
trunk contention a real building-scale NOW would see.  This module adds a
**fat-tree** (two-level switch hierarchy): ``topology_radix`` nodes hang
off each leaf switch, and every leaf switch connects to a root switch
through one full-duplex trunk.

Cross-leaf messages jointly reserve *four* directional links for the same
slot — source uplink, source leaf's trunk uplink, destination leaf's
trunk downlink, destination downlink — the same cut-through scheme the
star applies to two links::

    start   = max(now, busy_until of every hop)
    arrival = start + one_way_latency + extra_switches * switch_hop_latency
                    + payload_bytes * per_byte

Intra-leaf messages cross one switch exactly like the star and keep the
star's arithmetic.  Trunk links appear in per-link traffic accounting
(``TrafficSnapshot.per_link_bytes``) and carry ``busy_time``, so the §5.4
"max traffic per link" metric naturally extends to the trunks — which is
where a flat all-to-one barrier hurts: all N-1 arrivals from remote
leaves serialize on the master leaf's trunk downlink.
"""

from __future__ import annotations

from typing import Dict

from ..config import NetworkParams, PerfParams
from ..errors import ConfigurationError, NetworkError
from ..simcore import Simulator
from .link import Link
from .message import Message
from .nic import Nic
from .switch import Switch


class FatTreeSwitch(Switch):
    """Two-level switch hierarchy: leaf switches under one root switch."""

    #: Extra switches a cross-leaf message forwards through compared to
    #: the star's single switch (the root plus the second leaf).
    EXTRA_HOPS = 2

    def __init__(self, sim: Simulator, params: NetworkParams | None = None,
                 radix: int = 8):
        if radix < 2:
            raise ConfigurationError("fat-tree radix must be >= 2")
        super().__init__(sim, params)
        self.radix = radix
        #: Per-leaf trunk links, keyed by leaf index.
        self.trunk_up: Dict[int, Link] = {}
        self.trunk_down: Dict[int, Link] = {}

    # -- topology -----------------------------------------------------------
    def leaf_of(self, node_id: int) -> int:
        """Index of the leaf switch ``node_id`` hangs off."""
        return node_id // self.radix

    def attach(self, node_id: int) -> Nic:
        nic = super().attach(node_id)
        leaf = self.leaf_of(node_id)
        if leaf not in self.trunk_up:
            per_byte = self.params.per_byte
            self.trunk_up[leaf] = Link(name=f"trunk.up{leaf}", per_byte=per_byte)
            self.trunk_down[leaf] = Link(name=f"trunk.down{leaf}", per_byte=per_byte)
        return nic

    def iter_links(self):
        yield from super().iter_links()
        yield from self.trunk_up.values()
        yield from self.trunk_down.values()

    # -- transmission ---------------------------------------------------------
    def transmit(self, msg: Message) -> float:
        """Deliver ``msg`` across one or three switches."""
        if msg.dst not in self.nics:
            raise NetworkError(f"message to unknown node {msg.dst}: {msg!r}")
        dst_nic = self.nics[msg.dst]
        if not dst_nic.attached:
            raise NetworkError(f"message to detached node {msg.dst}: {msg!r}")

        if msg.src == msg.dst:
            msg.arrived_at = self.sim.now
            self.sim.schedule(0.0, (dst_nic.deliver, msg))
            return self.sim.now

        params = self.params
        size_bytes = msg.size_bytes
        wire_bytes = size_bytes + params.header_bytes
        src_leaf = self.leaf_of(msg.src)
        dst_leaf = self.leaf_of(msg.dst)
        hops = [self.uplinks[msg.src]]
        extra_switches = 0
        if src_leaf != dst_leaf:
            hops.append(self.trunk_up[src_leaf])
            hops.append(self.trunk_down[dst_leaf])
            extra_switches = self.EXTRA_HOPS
        hops.append(self.downlinks[msg.dst])

        # Joint cut-through reservation: every hop gets the same slot, so
        # a message is delayed by the *most* backlogged link on its path.
        start = self.sim.now
        for link in hops:
            if link.busy_until > start:
                start = link.busy_until
        for link in hops:
            link.occupy(start, wire_bytes)

        arrival = (
            start
            + params.one_way_latency
            + extra_switches * params.switch_hop_latency
            + size_bytes * params.per_byte
        )
        faults = self._faults
        if faults is not None:
            arrival += faults.extra_latency(msg.src, msg.dst)
        msg.arrived_at = arrival
        via = ()
        if extra_switches:
            via = (self.trunk_up[src_leaf].name, self.trunk_down[dst_leaf].name)
        self.stats.record(
            msg, uplink=hops[0].name, downlink=hops[-1].name, via=via
        )
        if faults is not None and faults.blocked(msg.src, msg.dst):
            self.stats.count_cut()
            self.sim.tracer.emit("net", "cut", f"{msg.kind} {msg.src}->{msg.dst}")
            return arrival
        if self.loss is not None and self.loss.should_drop(msg):
            self.stats.count_drop()
            self.sim.tracer.emit("net", "dropped", f"{msg.kind} {msg.src}->{msg.dst}")
            return arrival
        if faults is not None:
            delay = faults.delay_for(msg)
            if delay > 0.0:
                self.stats.count_delay()
                self.sim.tracer.emit(
                    "net", "delayed", f"{msg.kind} {msg.src}->{msg.dst} +{delay:.6f}s"
                )
                arrival += delay
                msg.arrived_at = arrival
            if faults.duplicate(msg):
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
                "net", msg.kind,
                f"{msg.src}->{msg.dst} {wire_bytes}B hops={2 + 2 * (extra_switches > 0)}",
            )
        return arrival


def build_topology(sim: Simulator, params: NetworkParams | None = None,
                   perf: PerfParams | None = None) -> Switch:
    """Construct the interconnect selected by ``perf.topology``.

    ``star`` (or no perf config at all) returns the plain
    :class:`Switch` — the construction path is byte-for-byte the seed's,
    which is what keeps default runs bitwise identical.
    """
    if perf is None or perf.topology == "star":
        return Switch(sim, params)
    if perf.topology == "fattree":
        return FatTreeSwitch(sim, params, radix=perf.topology_radix)
    raise ConfigurationError(f"unknown topology {perf.topology!r}")
