"""Switched full-duplex Ethernet NOW model.

Provides the :class:`Switch` star topology, per-node :class:`Nic`
interfaces, directional :class:`Link` occupancy, the :class:`Message`
taxonomy used by the DSM and adaptive layers, the one wire-fault model
(:class:`LinkFaults`: loss, partitions, degradation, duplication, delay)
and per-link traffic accounting (:class:`TrafficStats`).
"""

from . import message
from .faults import DATA_PLANE, LinkFaults
from .link import Link
from .message import Message, next_req_id
from .nic import Nic, ReplyWait
from .stats import TrafficSnapshot, TrafficStats
from .switch import Switch
from .topology import FatTreeSwitch, build_topology

__all__ = [
    "Link",
    "LinkFaults",
    "Message",
    "DATA_PLANE",
    "Nic",
    "ReplyWait",
    "Switch",
    "FatTreeSwitch",
    "build_topology",
    "TrafficSnapshot",
    "TrafficStats",
    "message",
    "next_req_id",
]
