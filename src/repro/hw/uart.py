"""16550-style UART — the debug communication device.

The host-side remote debugger talks GDB remote-serial-protocol bytes to
the target through this device (Fig. 2.1's "communication device").  The
model covers what stub and drivers need:

* THR/RBR data registers with 16-byte RX and TX FIFOs,
* IER/IIR interrupt generation (RX data available, THR empty),
* LSR status bits (data ready, THR empty, overrun),
* LCR/MCR accepted and stored (baud divisor latch included),
* a :class:`SerialLink` transport so two endpoints (target UART, host
  debugger) exchange bytes in process.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.hw.bus import PortDevice
from repro.obs.taps import TapPoint

PORT_BASE_COM1 = 0x3F8
IRQ_COM1 = 4
FIFO_DEPTH = 16

# Register offsets.
REG_DATA = 0      # RBR (read) / THR (write); DLL when DLAB set
REG_IER = 1       # interrupt enable; DLM when DLAB set
REG_IIR_FCR = 2   # IIR (read) / FCR (write)
REG_LCR = 3
REG_MCR = 4
REG_LSR = 5
REG_MSR = 6
REG_SCRATCH = 7

# LSR bits.
LSR_DATA_READY = 1 << 0
LSR_OVERRUN = 1 << 1
LSR_THR_EMPTY = 1 << 5
LSR_IDLE = 1 << 6

# IER bits.
IER_RX = 1 << 0
IER_TX = 1 << 1

# IIR values (priority-encoded).
IIR_NONE = 0x01
IIR_RX = 0x04
IIR_TX = 0x02

LCR_DLAB = 1 << 7


class SerialLink:
    """A bidirectional in-process byte pipe between target and host.

    ``a_to_b``/``b_to_a`` are unbounded; pacing is the responsibility of
    the performance layer, which charges cycles per byte instead.
    """

    def __init__(self) -> None:
        self.a_to_b: Deque[int] = deque()
        self.b_to_a: Deque[int] = deque()
        self._listeners = []
        #: Fault hook applied to every byte entering the link.  Called
        #: with (direction, byte) where direction is "t2h" (target to
        #: host) or "h2t"; returns the byte to deliver (possibly
        #: modified) or None to drop it.  See repro.faults.UartInjector.
        self.fault_hook: Optional[Callable[[str, int],
                                           Optional[int]]] = None
        #: Multicast observation point notified as ``taps(direction,
        #: byte)`` for every byte actually entering the link (after the
        #: fault hook, so faulted traffic is seen as delivered).  The
        #: flight recorder journals "h2t" bytes as replayable input and
        #: folds "t2h" bytes into a rolling digest; the tracer
        #: subscribes alongside.  Observers must only observe.
        self.taps = TapPoint()
        self.bytes_dropped = 0
        self.bytes_corrupted = 0

    def filter_byte(self, direction: str, byte: int) -> Optional[int]:
        """Run one byte through the fault hook, keeping line counters."""
        if self.fault_hook is None:
            return byte
        out = self.fault_hook(direction, byte)
        if out is None:
            self.bytes_dropped += 1
        elif out != byte:
            self.bytes_corrupted += 1
        return out

    def notify(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever bytes move."""
        self._listeners.append(callback)

    def _kick(self) -> None:
        for listener in self._listeners:
            listener()

    # -- snapshot support ----------------------------------------------------

    def state(self) -> dict:
        """Queue contents (counters are telemetry, not machine state)."""
        return {"a_to_b": list(self.a_to_b), "b_to_a": list(self.b_to_a)}

    def load_state(self, state: dict) -> None:
        self.a_to_b.clear()
        self.a_to_b.extend(state["a_to_b"])
        self.b_to_a.clear()
        self.b_to_a.extend(state["b_to_a"])


class Uart16550(PortDevice):
    """Target-side UART endpoint (side "A" of the link)."""

    def __init__(self, link: SerialLink,
                 raise_irq: Optional[Callable[[], None]] = None,
                 lower_irq: Optional[Callable[[], None]] = None,
                 flow_control: bool = True) -> None:
        self._link = link
        self._raise_irq = raise_irq or (lambda: None)
        self._lower_irq = lower_irq or (lambda: None)
        #: RTS/CTS modelling: with flow control the link holds bytes
        #: back while the FIFO is full; without it they are dropped and
        #: the overrun bit is set (for failure-injection tests).
        self.flow_control = flow_control
        self.ier = 0
        self.lcr = 0
        self.mcr = 0
        self.scratch = 0
        self.divisor = 1
        self.overrun = False
        self._rx: Deque[int] = deque()
        self.tx_count = 0
        self.rx_count = 0
        link.notify(self._pump)

    # -- link side ------------------------------------------------------------

    def _pump(self) -> None:
        """Move link bytes into the RX FIFO.

        When the FIFO is full: with flow control the rest waits on the
        link (RTS deasserted); without it the bytes are lost and the
        overrun bit latches.
        """
        moved = False
        while self._link.b_to_a:
            if len(self._rx) >= FIFO_DEPTH:
                if self.flow_control:
                    break
                self.overrun = True
                self._link.b_to_a.popleft()
                continue
            self._rx.append(self._link.b_to_a.popleft())
            self.rx_count += 1
            moved = True
        if moved:
            self._update_irq()

    def _update_irq(self) -> None:
        if (self.ier & IER_RX) and self._rx:
            self._raise_irq()
        elif self.ier & IER_TX:
            # THR is always empty in this model (infinite host drain).
            self._raise_irq()
        else:
            self._lower_irq()

    def _emit(self, byte: int) -> None:
        """Put one transmitted byte on the link (fault hook, then tap)."""
        sent = self._link.filter_byte("t2h", byte)
        if sent is not None:
            self._link.a_to_b.append(sent)
            if self._link.taps:
                self._link.taps("t2h", sent)

    # -- host-side stub interface ------------------------------------------

    def transmit(self, data: bytes) -> None:
        """Send ``data`` exactly as ``len(data)`` THR writes would.

        A THR write's link kick and IRQ update only matter when one of
        them can raise IRQ4; otherwise every per-byte update just lowers
        the line.  So when DLAB is clear, IER_TX is clear and no RX
        interrupt can become due, the bytes go out with one kick and one
        IRQ update; the fault hook, the ``t2h`` tap and ``tx_count``
        still see every byte.  In any other state each byte takes the
        THR path, so every raise happens as before.
        """
        if not data:
            return
        link = self._link
        if (self.lcr & LCR_DLAB or self.ier & IER_TX
                or (self.ier & IER_RX and (self._rx or link.b_to_a))):
            for byte in data:
                self.port_write(REG_DATA, byte, 1)
            return
        if link.fault_hook is None and not link.taps:
            link.a_to_b.extend(data)
        else:
            for byte in data:
                self._emit(byte)
        self.tx_count += len(data)
        link._kick()
        self._update_irq()

    def drain(self, bus) -> bytes:
        """Read every received byte through ``bus``: LSR, then RBR.

        Each byte is read with the same port sequence a polling driver
        uses, so the RBR reads' IRQ updates happen as the guest would
        see them.  While LCR.DLAB is set, RBR reads the divisor latch
        and pops nothing, so the loop would never end: nothing is read
        and the bytes wait in the FIFO until DLAB clears.
        """
        if self.lcr & LCR_DLAB:
            return b""
        received = bytearray()
        while bus.raw_port_read(PORT_BASE_COM1 + REG_LSR, 1) \
                & LSR_DATA_READY:
            received.append(bus.raw_port_read(PORT_BASE_COM1 + REG_DATA, 1))
        return bytes(received)

    # -- port interface ------------------------------------------------------

    def port_read(self, offset: int, size: int) -> int:
        if offset == REG_DATA:
            if self.lcr & LCR_DLAB:
                return self.divisor & 0xFF
            if not self._rx:
                return 0
            value = self._rx.popleft()
            self._pump()  # room freed: RTS reasserted, pull more in
            self._update_irq()
            return value
        if offset == REG_IER:
            if self.lcr & LCR_DLAB:
                return (self.divisor >> 8) & 0xFF
            return self.ier
        if offset == REG_IIR_FCR:
            if (self.ier & IER_RX) and self._rx:
                return IIR_RX
            if self.ier & IER_TX:
                return IIR_TX
            return IIR_NONE
        if offset == REG_LCR:
            return self.lcr
        if offset == REG_MCR:
            return self.mcr
        if offset == REG_LSR:
            status = LSR_THR_EMPTY | LSR_IDLE
            if self._rx:
                status |= LSR_DATA_READY
            if self.overrun:
                status |= LSR_OVERRUN
                self.overrun = False
            return status
        if offset == REG_MSR:
            return 0
        if offset == REG_SCRATCH:
            return self.scratch
        return 0

    def port_write(self, offset: int, value: int, size: int) -> None:
        value &= 0xFF
        if offset == REG_DATA:
            if self.lcr & LCR_DLAB:
                self.divisor = (self.divisor & 0xFF00) | value
                return
            self._emit(value)
            self.tx_count += 1
            self._link._kick()
            self._update_irq()
            return
        if offset == REG_IER:
            if self.lcr & LCR_DLAB:
                self.divisor = (self.divisor & 0x00FF) | (value << 8)
                return
            self.ier = value & 0x0F
            self._update_irq()
            return
        if offset == REG_IIR_FCR:
            if value & 0x02:  # FCR: clear RX FIFO
                self._rx.clear()
                self._update_irq()
            return
        if offset == REG_LCR:
            self.lcr = value
            return
        if offset == REG_MCR:
            self.mcr = value
            return
        if offset == REG_SCRATCH:
            self.scratch = value

    # -- snapshot support ----------------------------------------------------

    def state(self) -> dict:
        return {
            "ier": self.ier, "lcr": self.lcr, "mcr": self.mcr,
            "scratch": self.scratch, "divisor": self.divisor,
            "overrun": self.overrun, "rx": list(self._rx),
            "tx_count": self.tx_count, "rx_count": self.rx_count,
        }

    def load_state(self, state: dict) -> None:
        self.ier = state["ier"]
        self.lcr = state["lcr"]
        self.mcr = state["mcr"]
        self.scratch = state["scratch"]
        self.divisor = state["divisor"]
        self.overrun = state["overrun"]
        self._rx.clear()
        self._rx.extend(state["rx"])
        self.tx_count = state["tx_count"]
        self.rx_count = state["rx_count"]
        self._update_irq()


class HostSerialPort:
    """Host-debugger endpoint (side "B" of the link): a file-like pipe."""

    def __init__(self, link: SerialLink) -> None:
        self._link = link

    def send(self, data: bytes) -> None:
        for byte in data:
            delivered = self._link.filter_byte("h2t", byte)
            if delivered is not None:
                self._link.b_to_a.append(delivered)
                if self._link.taps:
                    self._link.taps("h2t", delivered)
        self._link._kick()

    def recv(self, max_bytes: int = 4096) -> bytes:
        queue = self._link.a_to_b
        if len(queue) <= max_bytes:
            out = bytes(queue)
            queue.clear()
            return out
        return bytes(queue.popleft() for _ in range(max_bytes))
