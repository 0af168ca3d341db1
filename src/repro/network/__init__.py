"""Switched full-duplex Ethernet NOW model.

Provides the :class:`Switch` star topology, per-node :class:`Nic`
interfaces, directional :class:`Link` occupancy, the :class:`Message`
taxonomy used by the DSM and adaptive layers, and per-link traffic
accounting (:class:`TrafficStats`).
"""

from . import message
from .link import Link
from .message import Message, next_req_id
from .nic import Nic
from .reliability import DATA_PLANE, LossModel, ReliableRequest
from .stats import TrafficSnapshot, TrafficStats
from .switch import Switch
from .topology import FatTreeSwitch, build_topology

__all__ = [
    "Link",
    "Message",
    "DATA_PLANE",
    "LossModel",
    "Nic",
    "ReliableRequest",
    "Switch",
    "FatTreeSwitch",
    "build_topology",
    "TrafficSnapshot",
    "TrafficStats",
    "message",
    "next_req_id",
]
