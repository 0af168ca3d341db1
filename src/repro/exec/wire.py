"""Length-prefixed JSON wire protocol of the distributed sweep service.

Every frame on a coordinator/worker/client socket is::

    +----------------+----------------------------+
    | 4 bytes, !I    | UTF-8 canonical JSON body  |
    | payload length | (sorted keys, compact)     |
    +----------------+----------------------------+

The body is always a JSON object with a ``"t"`` (type) field; the other
fields are type-specific and validated by :func:`validate_message`
against :data:`MESSAGE_FIELDS`.  Specs travel in their wire form
(:meth:`~repro.exec.spec.ScenarioSpec.to_wire`), results as the
canonical :meth:`~repro.exec.result.ScenarioResult.to_dict` — both are
content-addressed, so a digest computed on any host names the same
simulation and the same bytes.

The framing is deliberately dumb: no compression, no pipelining
negotiation, no partial frames.  Frames are small (specs and results are
a few KB of JSON) and the protocol is request/stream oriented; a
4-byte length prefix plus ``sendall`` is exactly as much protocol as the
service needs, and :func:`recv_frame` can always distinguish "peer went
away between frames" (:class:`ConnectionClosed`) from "peer died
mid-frame" (:class:`WireError`), which is what the coordinator's
requeue-on-death logic keys on.  See docs/SERVICE.md.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ExecError

#: Protocol identifier; sent in ``hello``/``welcome`` and checked by both
#: ends.  Bump on any incompatible frame-layout or message change.
WIRE_SCHEMA = "repro-service-wire/3"

#: Hard cap on one frame's payload (a result is a few KB; 64 MiB means a
#: corrupt or malicious length prefix cannot make a peer allocate blindly).
MAX_FRAME_BYTES = 64 << 20

_HEADER = struct.Struct("!I")


class WireError(ExecError):
    """A malformed frame or protocol violation on a service socket."""

    kind = "wire"


class ConnectionClosed(WireError):
    """The peer closed the connection cleanly between frames."""

    kind = "connection_closed"


#: Message type -> required fields (beyond ``t``).  Optional fields are
#: listed in the second tuple.  This table *is* the protocol surface;
#: docs/SERVICE.md renders it verbatim.
MESSAGE_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # worker -> coordinator
    "hello": (("schema", "role"), ("host", "pid", "salt")),
    "result": (("task_id", "digest", "result", "wall_seconds"),
               ("attempts", "failure_counts")),
    "task_error": (("task_id", "digest", "kind", "detail"), ()),
    "heartbeat": ((), ()),
    # coordinator -> worker
    "welcome": (("schema", "worker_id"), ("heartbeat_interval",)),
    "task": (("task_id", "spec"), ("attempt",)),
    "shutdown": ((), ("reason",)),
    # client -> coordinator
    "submit": (("specs",), ("no_cache", "refresh")),
    "status": ((), ()),
    "stop": ((), ()),
    # coordinator -> client
    "report": (("index", "digest", "result", "cached", "deduped"),
               ("wall_seconds", "worker", "attempts", "attempt_log")),
    "done": (("total", "executed", "cache_hits", "deduped"),
             ("requeued", "wall_seconds", "service")),
    "status_reply": (("workers", "counters"), ("queued", "inflight")),
    "error": (("message",),
              ("index", "digest", "kind", "attempts", "attempt_log")),
    "ok": ((), ()),
}


def message(t: str, **fields: Any) -> Dict[str, Any]:
    """Build a message dict of type ``t`` and validate it."""
    msg = {"t": t, **fields}
    validate_message(msg)
    return msg


def validate_message(msg: Mapping[str, Any]) -> str:
    """Check shape against :data:`MESSAGE_FIELDS`; returns the type."""
    if not isinstance(msg, Mapping):
        raise WireError(f"frame body must be a JSON object, got {type(msg).__name__}")
    t = msg.get("t")
    if t not in MESSAGE_FIELDS:
        raise WireError(f"unknown message type {t!r}")
    required, optional = MESSAGE_FIELDS[t]
    missing = [f for f in required if f not in msg]
    if missing:
        raise WireError(f"message {t!r} missing fields {missing}")
    allowed = {"t", *required, *optional}
    unknown = sorted(set(msg) - allowed)
    if unknown:
        raise WireError(f"message {t!r} has unknown fields {unknown}")
    return t


def encode_frame(msg: Mapping[str, Any]) -> bytes:
    """Serialize one message to its on-wire bytes (header + body)."""
    payload = json.dumps(msg, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(payload)} bytes exceeds "
                        f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})")
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse and validate one frame body."""
    try:
        msg = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise WireError(f"undecodable frame payload: {err}") from None
    validate_message(msg)
    return msg


def send_message(sock: socket.socket, msg: Mapping[str, Any]) -> None:
    """Validate, frame and send one message (blocking ``sendall``)."""
    validate_message(msg)
    try:
        sock.sendall(encode_frame(msg))
    except OSError as err:
        raise ConnectionClosed(f"send failed: {err}") from None


def _recv_exactly(sock: socket.socket, n: int, *, mid_frame: bool) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout:
            raise  # the coordinator's heartbeat-liveness probe
        except OSError as err:
            raise ConnectionClosed(f"recv failed: {err}") from None
        if not chunk:
            if chunks or mid_frame:
                raise WireError(
                    f"peer closed mid-frame ({n - remaining}/{n} bytes)"
                )
            raise ConnectionClosed("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Read one frame; raises :class:`ConnectionClosed` on clean EOF.

    ``socket.timeout`` propagates to the caller — the coordinator uses a
    receive timeout as its heartbeat-liveness check.
    """
    header = _recv_exactly(sock, _HEADER.size, mid_frame=False)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds MAX_FRAME_BYTES")
    return decode_payload(_recv_exactly(sock, length, mid_frame=True))


def parse_address(address: str, default_port: int = 7070) -> Tuple[str, int]:
    """``"host:port"`` (or bare ``"host"``) -> ``(host, port)``."""
    if not address:
        raise WireError("empty coordinator address")
    host, sep, port = address.rpartition(":")
    if not sep:
        return address, default_port
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise WireError(f"bad coordinator address {address!r}; "
                        "expected HOST:PORT") from None


def connect(address: str, timeout: Optional[float] = None,
            retry_seconds: float = 0.0) -> socket.socket:
    """TCP-connect to ``"host:port"``, optionally retrying for a while.

    ``retry_seconds`` papers over the startup race of "worker launched a
    moment before the coordinator finished binding": connection-refused
    errors are retried with a short sleep until the budget runs out.
    """
    import time

    host, port = parse_address(address)
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except OSError as err:
            if time.monotonic() >= deadline:
                raise ConnectionClosed(
                    f"cannot connect to coordinator at {host}:{port}: {err}"
                ) from None
            time.sleep(0.05)
