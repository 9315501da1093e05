"""Fuzzing: the fleet control port must answer hostile input with one
counted error reply, and keep serving the next client."""

import json
import socket
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.fleet.control import MAX_REQUEST_BYTES, ControlServer
from repro.fleet.supervisor import Fleet, FleetConfig

#: Ops the server serves; a request naming one may legitimately succeed.
KNOWN_OPS = {"status", "submit", "drain", "slo", "kill"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@pytest.fixture(scope="module")
def server():
    # An unstarted fleet answers ``status`` without spawning workers.
    control = ControlServer(Fleet(FleetConfig(workers=1)))
    yield control
    control.close()


def exchange(server, raw: bytes) -> bytes:
    """Send ``raw`` on a fresh connection and read until EOF, polling
    the server from this thread."""
    box = {}

    def client():
        with socket.create_connection(server.address, timeout=10) as conn:
            conn.sendall(raw)
            conn.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            box["reply"] = b"".join(chunks)

    thread = threading.Thread(target=client, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while thread.is_alive() and time.monotonic() < deadline:
        server.poll()
        time.sleep(0.001)
    thread.join(timeout=1.0)
    assert "reply" in box, "control request never completed"
    return box["reply"]


def names_known_op(raw: bytes) -> bool:
    try:
        request = json.loads(raw.decode("utf-8"))
    except ValueError:
        return False
    return isinstance(request, dict) and request.get("op") in KNOWN_OPS


def assert_one_rejection(server, raw: bytes) -> None:
    requests, rejected = server.requests, server.rejected
    reply = exchange(server, raw)
    assert reply.count(b"\n") == 1 and reply.endswith(b"\n")
    decoded = json.loads(reply)
    assert decoded["ok"] is False and decoded["error"]
    assert (server.requests, server.rejected) == (requests + 1,
                                                  rejected + 1)
    status = json.loads(exchange(server, b'{"op": "status"}\n'))
    assert status["ok"] is True
    assert (server.requests, server.rejected) == (requests + 2,
                                                  rejected + 1)


class TestControlRobustness:
    @given(noise=st.binary(max_size=512))
    @settings(max_examples=60, deadline=None)
    def test_random_bytes_get_one_counted_rejection(self, server, noise):
        assume(not names_known_op(noise))
        assert_one_rejection(server, noise)

    @given(value=json_values, newline=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_json_values_get_one_counted_rejection(self, server, value,
                                                   newline):
        raw = json.dumps(value).encode("utf-8") + (b"\n" if newline
                                                   else b"")
        assume(not names_known_op(raw))
        assert_one_rejection(server, raw)

    def test_oversize_request_is_rejected(self, server):
        assert_one_rejection(server, b" " * (MAX_REQUEST_BYTES + 1))

    def test_request_at_the_cap_is_served(self, server):
        body = b'{"op": "status"}'
        raw = body + b" " * (MAX_REQUEST_BYTES - len(body) - 1) + b"\n"
        assert len(raw) == MAX_REQUEST_BYTES
        rejected = server.rejected
        assert json.loads(exchange(server, raw))["ok"] is True
        assert server.rejected == rejected
