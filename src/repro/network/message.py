"""Message model for the simulated NOW.

Every unit of communication is a :class:`Message` with a *kind* (protocol
discriminator), a payload (arbitrary Python data — never serialized; the
wire cost is modelled by ``size_bytes``), and routing metadata.  Request /
reply correlation uses ``req_id``; the NIC routes replies back to the
issuing coroutine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

# -- message kinds used across the DSM / adaptive layers -------------------
# Transport-level
DATA = "data"
# DSM protocol
PAGE_REQ = "page_req"
PAGE_REPLY = "page_reply"
DIFF_REQ = "diff_req"
DIFF_REPLY = "diff_reply"
LOCK_REQ = "lock_req"
LOCK_FORWARD = "lock_forward"
LOCK_GRANT = "lock_grant"
BARRIER_ARRIVE = "barrier_arrive"
BARRIER_RELEASE = "barrier_release"
GC_REQ = "gc_req"
GC_DONE = "gc_done"
GC_GO = "gc_go"
FORK = "fork"
JOIN_DONE = "join_done"
STOP = "stop"
# Adaptivity
CONNECT = "connect"
CONNECT_ACK = "connect_ack"
PAGE_MAP = "page_map"
OWNER_UPDATE = "owner_update"
PROC_EXIT = "proc_exit"
MIGRATE_IMAGE = "migrate_image"
CKPT_PAGE_REQ = "ckpt_page_req"
CKPT_PAGE_REPLY = "ckpt_page_reply"
# Failure detection
HEARTBEAT = "heartbeat"
HEARTBEAT_ACK = "heartbeat_ack"


@dataclass(slots=True)
class Message:
    """One message on the simulated network.

    ``size_bytes`` is the *payload* size; the per-message protocol header
    is added by the traffic accounting (see
    :class:`~repro.config.NetworkParams.header_bytes`).
    """

    kind: str
    src: int
    dst: int
    size_bytes: int = 0
    payload: Any = None
    req_id: Optional[int] = None
    is_reply: bool = False
    #: Process-level addressing: needed when two DSM processes are
    #: multiplexed on one node (urgent leaves) and share its NIC.
    src_pid: Optional[int] = None
    dst_pid: Optional[int] = None
    #: Set by the transport on delivery: simulated arrival time.
    arrived_at: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative message size: {self.size_bytes}")

    def reply(self, kind: str, size_bytes: int = 0, payload: Any = None) -> "Message":
        """Construct the reply to this request (swapped route, same req_id)."""
        return Message(
            kind=kind,
            src=self.dst,
            dst=self.src,
            size_bytes=size_bytes,
            payload=payload,
            req_id=self.req_id,
            is_reply=True,
            src_pid=self.dst_pid,
            dst_pid=self.src_pid,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f"#{self.req_id}" if self.req_id is not None else ""
        arrow = "->" if not self.is_reply else "=>"
        return f"<{self.kind}{tag} {self.src}{arrow}{self.dst} {self.size_bytes}B>"
