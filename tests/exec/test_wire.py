"""The length-prefixed JSON wire protocol (framing, validation, addresses)."""

import socket
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.spec import ScenarioSpec
from repro.exec.wire import (
    MAX_FRAME_BYTES,
    MESSAGE_FIELDS,
    WIRE_SCHEMA,
    ConnectionClosed,
    WireError,
    decode_payload,
    encode_frame,
    message,
    parse_address,
    recv_message,
    send_message,
    validate_message,
)

#: A minimal well-formed instance of every protocol message type — a
#: guard that MESSAGE_FIELDS (the protocol surface docs/SERVICE.md
#: renders) stays constructible.
MINIMAL = {
    "hello": {"schema": WIRE_SCHEMA, "role": "worker"},
    "result": {"task_id": "t1", "digest": "d", "result": {}, "wall_seconds": 0.1},
    "task_error": {"task_id": "t1", "digest": "d", "kind": "error", "detail": "x"},
    "heartbeat": {},
    "welcome": {"schema": WIRE_SCHEMA, "worker_id": "w1"},
    "task": {"task_id": "t1", "spec": {}},
    "shutdown": {},
    "submit": {"specs": []},
    "status": {},
    "stop": {},
    "report": {"index": 0, "digest": "d", "result": {}, "cached": False,
               "deduped": False},
    "done": {"total": 1, "executed": 1, "cache_hits": 0, "deduped": 0},
    "status_reply": {"workers": [], "counters": {}},
    "error": {"message": "boom"},
    "ok": {},
}


class TestValidation:
    def test_every_protocol_message_type_is_constructible(self):
        assert set(MINIMAL) == set(MESSAGE_FIELDS)
        for t, fields in MINIMAL.items():
            assert validate_message(message(t, **fields)) == t

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError, match="unknown message type"):
            validate_message({"t": "teleport"})

    def test_missing_required_field_rejected(self):
        with pytest.raises(WireError, match="missing fields"):
            message("error")  # no message=

    def test_unknown_field_rejected(self):
        with pytest.raises(WireError, match="unknown fields"):
            message("heartbeat", mood="chipper")

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            validate_message(["t", "ok"])


class TestFraming:
    def test_roundtrip_over_a_real_socketpair(self):
        a, b = socket.socketpair()
        try:
            msg = message("report", index=3, digest="abc", result={"x": 1},
                          cached=True, deduped=False, worker="w2")
            send_message(a, msg)
            assert recv_message(b) == msg
        finally:
            a.close()
            b.close()

    def test_clean_close_between_frames_is_connection_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_message(b)
        finally:
            b.close()

    def test_death_mid_frame_is_a_wire_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 100) + b'{"partial')
            a.close()
            with pytest.raises(WireError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected_without_allocating(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            with pytest.raises(WireError, match="exceeds MAX_FRAME_BYTES"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_undecodable_payload_rejected(self):
        with pytest.raises(WireError, match="undecodable"):
            decode_payload(b"\xff\xfe not json")

    def test_encode_is_canonical(self):
        # sorted keys + compact separators: same message, same bytes.
        m1 = message("error", message="x", kind="k", index=1)
        m2 = message("error", index=1, kind="k", message="x")
        assert encode_frame(m1) == encode_frame(m2)


class TestRoundtripProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=200), st.integers(min_value=0, max_value=2**31 - 1))
    def test_error_frames_roundtrip_any_text(self, text, index):
        msg = message("error", message=text, index=index, kind="wire")
        assert decode_payload(encode_frame(msg)[4:]) == msg

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=10**9),
           st.booleans())
    def test_spec_wire_form_roundtrips_digest(self, nprocs, seed, materialized):
        spec = ScenarioSpec(
            kernel="jacobi", params={"n": 32, "iterations": 2},
            nprocs=nprocs, materialized=materialized, seed=seed, label="prop")
        again = ScenarioSpec.from_wire(spec.to_wire())
        assert again == spec
        assert again.config_digest() == spec.config_digest()


class TestParseAddress:
    def test_host_and_port(self):
        assert parse_address("node7:9001") == ("node7", 9001)

    def test_bare_host_gets_default_port(self):
        assert parse_address("node7") == ("node7", 7070)
        assert parse_address("node7", default_port=123) == ("node7", 123)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address(":9001") == ("127.0.0.1", 9001)

    def test_garbage_port_rejected(self):
        with pytest.raises(WireError, match="HOST:PORT"):
            parse_address("node7:lots")

    def test_empty_rejected(self):
        with pytest.raises(WireError, match="empty"):
            parse_address("")
