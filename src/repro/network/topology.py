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

A topology is a route, not a second wire model: :meth:`Switch.transmit`
asks :meth:`FatTreeSwitch.route` (``routed`` is set) which trunks lie
between a message's two port links and reserves all of them for the same
slot.  Cross-leaf messages thus hold *four* directional links — source
uplink, source leaf's trunk uplink, destination leaf's trunk downlink,
destination downlink — and pay one ``switch_hop_latency`` per trunk (the
root and the second leaf switch)::

    start   = max(now, busy_until of every hop)
    arrival = start + one_way_latency + len(trunks) * switch_hop_latency
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
from ..errors import ConfigurationError
from ..simcore import Simulator
from .link import Link
from .nic import Nic
from .switch import Switch


class FatTreeSwitch(Switch):
    """Two-level switch hierarchy: leaf switches under one root switch."""

    routed = True

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
    def route(self, src: int, dst: int) -> tuple:
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return (), " hops=2"
        return (self.trunk_up[src_leaf], self.trunk_down[dst_leaf]), " hops=4"

    #: Inert: ``benchmarks/spine/tracer.py`` patches this class attribute
    #: by name.  ROADMAP item 2(a) deletes it.
    transmit = Switch.transmit


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
