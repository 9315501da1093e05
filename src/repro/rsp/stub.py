"""The target-side GDB remote stub.

This is the "remote debugging functions (stub)" block of the paper's
Fig. 2.1.  It lives inside the monitor, reads RSP bytes from the debug
UART, executes commands against a :class:`TargetAdapter`, and writes
replies back.  The stub never touches guest-owned devices — only the
UART, which is exactly why the monitor must emulate/own the UART, PIC
and timer but nothing else.

Supported commands: ``?`` ``g`` ``G`` ``p`` ``P`` ``m`` ``M`` ``X``
``c`` ``s`` ``k`` ``D`` ``H`` ``T`` ``Z0/z0`` ``Z1/z1`` ``Z2-4/z2-4``
``qSupported`` ``qAttached`` ``qC`` ``qfThreadInfo`` ``qsThreadInfo``
``vCont?``.  Unknown packets get the mandated empty response.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ProtocolError
from repro.obs.taps import TapPoint
from repro.rsp.packets import (
    PacketDecoder,
    frame,
    hex_decode,
    hex_encode,
)
from repro.rsp.target import (
    NUM_REPORTED_REGS,
    TargetAdapter,
    WATCH_READ,
    WATCH_WRITE,
)

_WATCH_KINDS = {2: WATCH_WRITE, 3: WATCH_READ, 4: WATCH_WRITE}


class DebugStub:
    """Packet dispatcher bound to one target adapter and one byte pipe."""

    def __init__(self, target: TargetAdapter,
                 send_bytes: Callable[[bytes], None]) -> None:
        self.target = target
        self._send_bytes = send_bytes
        self._decoder = PacketDecoder()
        self.no_ack_mode = False
        #: True while the guest should be executing (set by c/s commands).
        self.running = False
        self.packets_handled = 0
        self.killed = False
        #: Thread selected by Hg (0 = any/current).
        self._g_thread = 0
        #: Multicast observation point notified as ``taps(direction,
        #: payload)`` with ``"in"`` for every dispatched packet and
        #: ``"out"`` for every framed reply payload.  The tracer
        #: subscribes here; observers must only observe.
        self.packet_taps = TapPoint()

    # ------------------------------------------------------------------

    def feed(self, data: bytes) -> None:
        """Push raw UART bytes into the stub; replies go out via the pipe."""
        acks = self._decoder.feed(data)
        if acks and not self.no_ack_mode:
            self._send_bytes(acks)
        while True:
            packet = self._decoder.next_packet()
            if packet is None:
                break
            self._dispatch(packet)
        if self._decoder.interrupts:
            self._decoder.interrupts = 0
            if self.running:
                self.report_stop(2)  # SIGINT

    # ------------------------------------------------------------------

    def _reply(self, payload: bytes) -> None:
        if self.packet_taps:
            self.packet_taps("out", payload)
        self._send_bytes(frame(payload))

    def report_stop(self, signal: Optional[int] = None) -> None:
        """Send a stop reply (after a breakpoint/step/fault).

        Stop replies answer an outstanding ``c``/``s``; if the target
        stopped on its own (guest died while detached), nothing is sent
        — the debugger learns the state from its next ``?``.
        """
        if signal is None:
            signal = self.target.stop_signal()
        was_running = self.running
        self.running = False
        if was_running:
            self._reply(f"S{signal:02x}".encode())

    # ------------------------------------------------------------------

    def _dispatch(self, packet: bytes) -> None:
        self.packets_handled += 1
        if self.packet_taps:
            self.packet_taps("in", packet)
        try:
            text = packet.decode("latin-1")
        except UnicodeDecodeError:
            self._reply(b"E00")
            return
        if not text:
            self._reply(b"")
            return
        command, args = text[0], text[1:]
        handler = getattr(self, f"_cmd_{command}", None)
        if command == "q":
            self._query(args)
        elif command == "v":
            self._multiletter(args)
        elif handler is not None:
            try:
                handler(args)
            except (ProtocolError, ValueError):
                self._reply(b"E01")
        else:
            self._reply(b"")  # unknown: mandated empty response

    # -- simple commands ------------------------------------------------------

    def _query(self, args: str) -> None:
        if args.startswith("Supported"):
            self._reply(b"PacketSize=4096;swbreak+;hwbreak+;"
                        b"QStartNoAckMode+;qXfer:features:read+")
            return
        if args.startswith("Rcmd,"):
            self._rcmd(args[5:])
            return
        if args.startswith("Xfer:features:read:"):
            self._xfer_features(args[len("Xfer:features:read:"):])
            return
        if args == "Attached":
            self._reply(b"1")
            return
        if args == "C":
            current = self.target.current_thread_id()
            self._reply(f"QC{current:x}".encode())
            return
        if args == "fThreadInfo":
            ids = self.target.thread_ids()
            self._reply(("m" + ",".join(f"{i:x}" for i in ids))
                        .encode())
            return
        if args == "sThreadInfo":
            self._reply(b"l")
            return
        if args.startswith("ThreadExtraInfo,"):
            try:
                thread_id = int(args.split(",", 1)[1], 16)
                info = self.target.thread_extra_info(thread_id)
            except (ValueError, ProtocolError):
                self._reply(b"E01")
                return
            self._reply(hex_encode(info.encode("utf-8")).encode("ascii"))
            return
        self._reply(b"")

    def _xfer_features(self, args: str) -> None:
        """Serve the target-description XML in offset/length windows."""
        from repro.rsp.target import TARGET_XML
        try:
            annex, window = args.split(":", 1)
            offset_text, length_text = window.split(",", 1)
            offset, length = int(offset_text, 16), int(length_text, 16)
        except ValueError:
            self._reply(b"E01")
            return
        if annex != "target.xml":
            self._reply(b"E00")
            return
        data = TARGET_XML.encode("utf-8")
        chunk = data[offset:offset + length]
        marker = b"l" if offset + length >= len(data) else b"m"
        self._reply(marker + chunk)

    def _rcmd(self, hex_command: str) -> None:
        """``monitor <cmd>``: forwarded to the target's monitor."""
        handler = getattr(self.target, "monitor_command", None)
        if handler is None:
            self._reply(b"")  # not supported by this target
            return
        try:
            text = hex_decode(hex_command).decode("utf-8",
                                                  errors="replace")
            output = handler(text)
        except Exception:  # noqa: BLE001 - stub must never die
            self._reply(b"E01")
            return
        if not output:
            self._reply(b"OK")
            return
        if not output.endswith("\n"):
            output += "\n"
        self._reply(hex_encode(output.encode("utf-8")).encode("ascii"))

    def _multiletter(self, args: str) -> None:
        if args == "Cont?":
            self._reply(b"vCont;c;s")
            return
        if args.startswith("Cont;"):
            action = args[5:6]
            if action == "s":
                self._cmd_s("")
                return
            if action == "c":
                self._cmd_c("")
                return
        self._reply(b"")

    # -- registers ------------------------------------------------------------

    def _cmd_g(self, args: str) -> None:
        if self._g_thread in (0,) or \
                self._g_thread == self.target.current_thread_id():
            values = self.target.read_registers()
        else:
            values = self.target.thread_registers(self._g_thread)
            if values is None:
                self._reply(b"E05")
                return
        blob = b"".join((v & 0xFFFFFFFF).to_bytes(4, "little")
                        for v in values)
        self._reply(hex_encode(blob).encode())

    def _cmd_G(self, args: str) -> None:
        blob = hex_decode(args)
        if len(blob) != 4 * NUM_REPORTED_REGS:
            self._reply(b"E02")
            return
        for index in range(NUM_REPORTED_REGS):
            value = int.from_bytes(blob[index * 4:index * 4 + 4], "little")
            self.target.write_register(index, value)
        self._reply(b"OK")

    def _cmd_p(self, args: str) -> None:
        index = int(args, 16)
        values = self.target.read_registers()
        if index >= len(values):
            self._reply(b"E03")
            return
        self._reply(hex_encode(values[index].to_bytes(4, "little")).encode())

    def _cmd_P(self, args: str) -> None:
        reg_text, _, value_text = args.partition("=")
        index = int(reg_text, 16)
        value = int.from_bytes(hex_decode(value_text), "little")
        self.target.write_register(index, value)
        self._reply(b"OK")

    # -- memory ------------------------------------------------------------

    def _cmd_m(self, args: str) -> None:
        addr_text, _, len_text = args.partition(",")
        addr, length = int(addr_text, 16), int(len_text, 16)
        data = self.target.read_memory(addr, length)
        if data is None:
            self._reply(b"E14")  # EFAULT
            return
        self._reply(hex_encode(data).encode())

    def _cmd_M(self, args: str) -> None:
        header, _, payload = args.partition(":")
        addr_text, _, len_text = header.partition(",")
        addr, length = int(addr_text, 16), int(len_text, 16)
        data = hex_decode(payload)
        if len(data) != length:
            self._reply(b"E02")
            return
        if not self.target.write_memory(addr, data):
            self._reply(b"E14")
            return
        self._reply(b"OK")

    def _cmd_X(self, args: str) -> None:
        header, _, payload = args.partition(":")
        addr_text, _, len_text = header.partition(",")
        addr, length = int(addr_text, 16), int(len_text, 16)
        data = payload.encode("latin-1")
        if len(data) != length:
            self._reply(b"E02")
            return
        if not self.target.write_memory(addr, data):
            self._reply(b"E14")
            return
        self._reply(b"OK")

    # -- execution ------------------------------------------------------------

    def _cmd_c(self, args: str) -> None:
        if args:
            self.target.write_register(8, int(args, 16))  # resume address
        self.running = True
        self.target.resume(step=False)
        # No reply now: the stop reply comes when the target stops.

    def _cmd_s(self, args: str) -> None:
        if args:
            self.target.write_register(8, int(args, 16))
        self.running = True
        self.target.resume(step=True)

    def _cmd_k(self, args: str) -> None:
        self.killed = True
        # GDB does not expect a reply to k.

    def _cmd_D(self, args: str) -> None:
        self._reply(b"OK")
        self.running = True
        self.target.resume(step=False)

    def _cmd_H(self, args: str) -> None:
        """Hg<id>: select the thread 'g' reads; Hc is accepted as-is
        (execution control always applies to the whole guest)."""
        if args[:1] == "g":
            try:
                value = int(args[1:], 16)
            except ValueError:
                self._reply(b"E01")
                return
            if value in (0, -1) or value == 0xFFFFFFFF:
                self._g_thread = 0
            elif value in self.target.thread_ids():
                self._g_thread = value
            else:
                self._reply(b"E01")
                return
        self._reply(b"OK")

    def _cmd_T(self, args: str) -> None:
        try:
            thread_id = int(args, 16)
        except ValueError:
            self._reply(b"E01")
            return
        if thread_id in self.target.thread_ids():
            self._reply(b"OK")
        else:
            self._reply(b"E01")

    # -- breakpoints ------------------------------------------------------------

    def _parse_z(self, args: str):
        parts = args.split(",")
        if len(parts) < 3:
            raise ProtocolError(f"malformed Z/z packet {args!r}")
        return int(parts[0]), int(parts[1], 16), int(parts[2], 16)

    def _cmd_Z(self, args: str) -> None:
        kind, addr, length = self._parse_z(args)
        if kind in (0, 1):
            ok = self.target.set_breakpoint(addr)
        elif kind in _WATCH_KINDS:
            ok = self.target.set_watchpoint(addr, length,
                                            _WATCH_KINDS[kind])
            if kind == 4:  # access watchpoint: read side too
                ok = self.target.set_watchpoint(addr, length,
                                                WATCH_READ) and ok
        else:
            self._reply(b"")
            return
        self._reply(b"OK" if ok else b"E09")

    def _cmd_z(self, args: str) -> None:
        kind, addr, length = self._parse_z(args)
        if kind in (0, 1):
            ok = self.target.clear_breakpoint(addr)
        elif kind in _WATCH_KINDS:
            ok = self.target.clear_watchpoint(addr, length,
                                              _WATCH_KINDS[kind])
            if kind == 4:
                ok = self.target.clear_watchpoint(addr, length,
                                                  WATCH_READ) and ok
        else:
            self._reply(b"")
            return
        self._reply(b"OK" if ok else b"E09")


# '?' cannot be a Python method name suffix; patch the dispatch table.
def _cmd_question(self: DebugStub, args: str) -> None:
    self._reply(f"S{self.target.stop_signal():02x}".encode())


setattr(DebugStub, "_cmd_?", _cmd_question)
