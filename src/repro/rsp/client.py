"""Host-side RSP client — the wire half of the "software remote debugger".

The client is transport-agnostic: it writes request bytes through
``send``, then repeatedly calls ``pump`` (which must give the target a
chance to execute — e.g. poll the monitor's stub or run the machine) and
reads reply bytes through ``recv`` until a complete packet arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ProtocolError, RspTransportError
from repro.rsp.packets import ACK, PacketDecoder, frame, hex_decode
from repro.rsp.target import NUM_REPORTED_REGS


@dataclass
class RetryPolicy:
    """How :meth:`RspClient.exchange` survives a lossy transport.

    Time is *simulated* time, measured in pump quanta (each pump gives
    the target one scheduling slice), so the policy is deterministic and
    independent of host wall clock:

    * ``max_attempts`` transmissions per exchange;
    * each attempt waits at most ``pumps_per_attempt`` quanta for a
      reply (the per-exchange timeout is the product of the two);
    * before retransmission *k* the client backs off
      ``min(backoff_base_pumps * backoff_multiplier**(k-1),
      backoff_max_pumps)`` quanta — bounded exponential backoff;
    * a NAK from the stub (our frame arrived corrupted) triggers an
      immediate retransmission instead of waiting out the timeout.

    The default policy preserves the client's historical behaviour
    (3 bare attempts, no backoff) plus NAK fast-retransmit.  Exhausted
    attempts raise :class:`repro.errors.RspTransportError`.
    """

    max_attempts: int = 3
    pumps_per_attempt: Optional[int] = None  # None: the client's max_pumps
    backoff_base_pumps: int = 0
    backoff_multiplier: float = 2.0
    backoff_max_pumps: int = 512
    retransmit_on_nak: bool = True

    def backoff_pumps(self, attempt: int) -> int:
        """Idle quanta before transmission ``attempt`` (0-based)."""
        if attempt <= 0 or self.backoff_base_pumps <= 0:
            return 0
        pumps = self.backoff_base_pumps \
            * self.backoff_multiplier ** (attempt - 1)
        return int(min(pumps, self.backoff_max_pumps))


class RspClient:
    def __init__(self, send: Callable[[bytes], None],
                 recv: Callable[[], bytes],
                 pump: Callable[[], None],
                 max_pumps: int = 10_000,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self._send = send
        self._recv = recv
        self._pump = pump
        self._max_pumps = max_pumps
        self.retry_policy = retry_policy or RetryPolicy()
        self._decoder = PacketDecoder()
        #: Recovery-action counters (collected by
        #: repro.obs.metrics.collect_fault).
        self.recoveries: Dict[str, int] = {}
        #: Optional observer called with each recovery action name.
        self.on_recovery: Optional[Callable[[str], None]] = None

    @property
    def acks_seen(self) -> int:
        return self._decoder.acks

    @property
    def naks_seen(self) -> int:
        return self._decoder.naks

    # -- plumbing ------------------------------------------------------------

    def _recover(self, action: str) -> None:
        self.recoveries[action] = self.recoveries.get(action, 0) + 1
        if self.on_recovery is not None:
            self.on_recovery(action)

    def _drain(self) -> None:
        data = self._recv()
        if data:
            self._decoder.feed(data)

    def exchange(self, payload: bytes,
                 retries: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None) -> bytes:
        """Send one command and wait for its reply packet.

        ``policy`` overrides the client's :class:`RetryPolicy` for this
        exchange; the legacy ``retries`` argument maps onto
        ``max_attempts``.  Exhausting the policy raises
        :class:`~repro.errors.RspTransportError` — never a fabricated
        reply.
        """
        policy = policy or self.retry_policy
        attempts = retries if retries is not None else policy.max_attempts
        budget = policy.pumps_per_attempt \
            if policy.pumps_per_attempt is not None else self._max_pumps
        for attempt in range(attempts):
            for _ in range(policy.backoff_pumps(attempt)):
                self._pump()   # back off in simulated time
            if attempt:
                self._recover("retransmit")
                if policy.backoff_pumps(attempt):
                    self._recover("backoff")
            self._send(frame(payload))
            self._send(b"")  # no-op; keeps transports with flushing happy
            naks_before = self.naks_seen
            for _ in range(budget):
                self._pump()
                self._drain()
                packet = self._decoder.next_packet()
                if packet is not None:
                    self._send(ACK)
                    return packet
                if policy.retransmit_on_nak \
                        and self.naks_seen > naks_before:
                    # The stub NAK'd our frame: retransmit immediately.
                    self._recover("nak-retransmit")
                    break
            # No reply: retransmit (next attempt).
        raise RspTransportError(
            f"no reply to {payload!r} after {attempts} attempt(s)")

    def send_async(self, payload: bytes) -> None:
        """Send without waiting (used for c/s, whose reply comes later)."""
        self._send(frame(payload))

    def send_interrupt(self) -> None:
        """Send the ^C break byte."""
        self._send(b"\x03")

    def wait_for_stop(self, max_pumps: Optional[int] = None) -> bytes:
        """Pump until a stop reply (Sxx/Txx) arrives."""
        budget = max_pumps if max_pumps is not None else self._max_pumps
        for _ in range(budget):
            self._pump()
            self._drain()
            packet = self._decoder.next_packet()
            if packet is not None:
                self._send(ACK)
                return packet
        raise RspTransportError("target did not stop")

    # -- typed helpers ------------------------------------------------------------

    @staticmethod
    def _check_ok(reply: bytes) -> None:
        if reply != b"OK":
            raise ProtocolError(f"target error reply {reply!r}")

    def query_halt_reason(self) -> int:
        reply = self.exchange(b"?")
        if not reply.startswith(b"S"):
            raise ProtocolError(f"unexpected halt reply {reply!r}")
        return int(reply[1:3], 16)

    def read_registers(self) -> List[int]:
        reply = self.exchange(b"g")
        blob = hex_decode(reply.decode("ascii"))
        if len(blob) != 4 * NUM_REPORTED_REGS:
            raise ProtocolError(f"short register blob: {len(blob)} bytes")
        return [int.from_bytes(blob[i * 4:i * 4 + 4], "little")
                for i in range(NUM_REPORTED_REGS)]

    def write_registers(self, values: List[int]) -> None:
        blob = b"".join((v & 0xFFFFFFFF).to_bytes(4, "little")
                        for v in values)
        self._check_ok(self.exchange(b"G" + blob.hex().encode()))

    def read_register(self, index: int) -> int:
        reply = self.exchange(f"p{index:x}".encode())
        return int.from_bytes(hex_decode(reply.decode("ascii")), "little")

    def write_register(self, index: int, value: int) -> None:
        hex_value = (value & 0xFFFFFFFF).to_bytes(4, "little").hex()
        self._check_ok(self.exchange(f"P{index:x}={hex_value}".encode()))

    def read_memory(self, addr: int, length: int) -> bytes:
        reply = self.exchange(f"m{addr:x},{length:x}".encode())
        if reply.startswith(b"E"):
            raise ProtocolError(f"memory read failed: {reply!r}")
        return hex_decode(reply.decode("ascii"))

    def write_memory(self, addr: int, data: bytes) -> None:
        command = f"M{addr:x},{len(data):x}:".encode() + data.hex().encode()
        self._check_ok(self.exchange(command))

    def set_breakpoint(self, addr: int) -> None:
        self._check_ok(self.exchange(f"Z0,{addr:x},1".encode()))

    def clear_breakpoint(self, addr: int) -> None:
        self._check_ok(self.exchange(f"z0,{addr:x},1".encode()))

    def set_watchpoint(self, addr: int, length: int = 4,
                       on_write: bool = True) -> None:
        kind = 2 if on_write else 3
        self._check_ok(self.exchange(f"Z{kind},{addr:x},{length:x}"
                                     .encode()))

    def clear_watchpoint(self, addr: int, length: int = 4,
                         on_write: bool = True) -> None:
        kind = 2 if on_write else 3
        self._check_ok(self.exchange(f"z{kind},{addr:x},{length:x}"
                                     .encode()))

    def cont(self) -> bytes:
        """Continue and wait for the next stop reply."""
        self.send_async(b"c")
        return self.wait_for_stop()

    def step(self) -> bytes:
        """Single-step and wait for the stop reply."""
        self.send_async(b"s")
        return self.wait_for_stop()

    # -- threads ------------------------------------------------------------

    def thread_ids(self) -> List[int]:
        """Enumerate target threads (qfThreadInfo)."""
        reply = self.exchange(b"qfThreadInfo")
        if not reply.startswith(b"m"):
            return []
        ids = [int(part, 16) for part in
               reply[1:].decode("ascii").split(",") if part]
        tail = self.exchange(b"qsThreadInfo")
        if not tail.startswith(b"l"):
            raise ProtocolError(f"bad qsThreadInfo reply {tail!r}")
        return ids

    def current_thread(self) -> int:
        reply = self.exchange(b"qC")
        if not reply.startswith(b"QC"):
            raise ProtocolError(f"bad qC reply {reply!r}")
        return int(reply[2:], 16)

    def select_thread(self, thread_id: int) -> None:
        """Hg: point register reads at a (possibly parked) thread."""
        self._check_ok(self.exchange(f"Hg{thread_id:x}".encode()))

    def thread_extra_info(self, thread_id: int) -> str:
        reply = self.exchange(
            f"qThreadExtraInfo,{thread_id:x}".encode())
        if reply.startswith(b"E"):
            raise ProtocolError(f"thread info failed: {reply!r}")
        return hex_decode(reply.decode("ascii")).decode(
            "utf-8", errors="replace")

    def thread_alive(self, thread_id: int) -> bool:
        return self.exchange(f"T{thread_id:x}".encode()) == b"OK"

    def monitor_command(self, text: str) -> str:
        """``monitor <cmd>`` (qRcmd): returns the monitor's output."""
        reply = self.exchange(b"qRcmd," + text.encode("utf-8").hex()
                              .encode("ascii"))
        if reply == b"OK":
            return ""
        if reply.startswith(b"E") and len(reply) == 3:
            raise ProtocolError(f"monitor command failed: {reply!r}")
        return hex_decode(reply.decode("ascii")).decode(
            "utf-8", errors="replace")

    def kill(self) -> None:
        self.send_async(b"k")

    def detach(self) -> None:
        self.exchange(b"D")
