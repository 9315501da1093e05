"""Fleet control protocol: one JSON request per TCP connection.

The ``repro-fleet`` CLI's status/submit/drain/kill verbs talk to a
running fleet through this socket.  The protocol is deliberately
minimal — connect, send one JSON object terminated by a newline, read
one JSON reply until EOF:

    {"op": "status"}
    {"op": "submit", "job": {"kind": "chaos", "params": {...},
                             "priority": 7, "timeout_s": 120}}
    {"op": "drain"}
    {"op": "kill", "worker": 2}
    {"op": "slo"}

Replies always carry ``"ok"``; errors carry ``"error"`` instead of
crashing the control plane, and are counted in ``rejected``.  The
server is polled from the fleet's owner loop, same as the mux — no
threads.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, List, Tuple

from repro.fleet.dashboard import build_dashboard
from repro.fleet.jobs import Job, RetrySchedule

#: Longest request accepted, newline included.
MAX_REQUEST_BYTES = 64 * 1024
#: Seconds a connection may take to send its whole request; a silent or
#: stalled one is then answered with a counted rejection and closed.
REQUEST_DEADLINE_S = 10.0


class ControlServer:
    """Non-blocking one-shot request/response listener."""

    def __init__(self, fleet, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.fleet = fleet
        self._listener = socket.create_server((host, port), backlog=8)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()
        #: (connection, bytes so far, monotonic deadline).
        self._pending: List[Tuple[socket.socket, bytearray, float]] = []
        self.requests = 0
        self.rejected = 0   # requests answered with "ok": false

    def poll(self) -> None:
        now = time.monotonic()
        while True:
            try:
                conn, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                break
            conn.setblocking(False)
            self._pending.append((conn, bytearray(),
                                  now + REQUEST_DEADLINE_S))
        still_pending = []
        for conn, buffer, deadline in self._pending:
            try:
                chunk = conn.recv(65536)
            except BlockingIOError:
                chunk = None
            except OSError:
                conn.close()
                continue
            if chunk:
                buffer.extend(chunk)
            if len(buffer) > MAX_REQUEST_BYTES:
                self._reply(conn, {"ok": False, "error": "request too long"})
            elif chunk == b"" or b"\n" in buffer:
                self._respond(conn, bytes(buffer))
            elif now >= deadline:
                self._reply(conn, {"ok": False, "error": "request timed out"})
            else:
                still_pending.append((conn, buffer, deadline))
        self._pending = still_pending

    def _respond(self, conn: socket.socket, raw: bytes) -> None:
        try:
            request = json.loads(raw.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request is not a JSON object")
            reply = self._handle(request)
        except Exception as exc:   # noqa: BLE001 — keep serving
            reply = {"ok": False,
                     "error": f"{type(exc).__name__}: {exc}"}
        self._reply(conn, reply)

    def _reply(self, conn: socket.socket, reply: Dict) -> None:
        try:
            conn.sendall(json.dumps(reply).encode("utf-8") + b"\n")
        except OSError:
            pass
        conn.close()
        self.requests += 1
        if not reply["ok"]:
            self.rejected += 1

    def _handle(self, request: Dict) -> Dict:
        op = request.get("op")
        if op == "status":
            return {"ok": True, "status": self.fleet.status(),
                    "dashboard": build_dashboard(self.fleet)}
        if op == "submit":
            spec = request.get("job", {})
            record = self.fleet.submit(job_from_spec(spec))
            return {"ok": True, "id": record.id}
        if op == "drain":
            self.fleet.drain()
            return {"ok": True, "jobs": self.fleet.queue.counts()}
        if op == "slo":
            import time
            return {"ok": True,
                    "slo": self.fleet.obs.slo_status(time.monotonic()),
                    "percentiles": self.fleet.obs.percentile_summary(),
                    "fleet_metrics": self.fleet.obs.fleet_metrics()}
        if op == "kill":
            self.fleet.kill_worker(int(request["worker"]))
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def close(self) -> None:
        for conn, _buffer, _deadline in self._pending:
            conn.close()
        self._pending.clear()
        self._listener.close()


def job_from_spec(spec: Dict) -> Job:
    """Build a :class:`Job` from the wire/CLI JSON shape."""
    retry = spec.get("retry")
    return Job(
        kind=spec.get("kind", "noop"),
        params=spec.get("params", {}),
        priority=int(spec.get("priority", 5)),
        timeout_s=float(spec.get("timeout_s", 60.0)),
        retry=RetrySchedule(**retry) if retry else RetrySchedule(),
        max_resumes=int(spec.get("max_resumes", 3)))


def control_request(address, payload: Dict,
                    timeout: float = 5.0) -> Dict:
    """Client side: one request, one reply."""
    with socket.create_connection(tuple(address),
                                  timeout=timeout) as conn:
        conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with conn.makefile("rb") as reply:
            return json.loads(reply.readline().decode("utf-8"))
