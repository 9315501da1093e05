"""Unit tests for the 8254 PIT and 16550 UART models."""

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import DeviceError
from repro.hw.machine import Machine
from repro.hw.pit import PIT_HZ, Pit8254
from repro.hw.uart import (
    FIFO_DEPTH,
    HostSerialPort,
    IER_RX,
    IER_TX,
    IIR_NONE,
    IIR_RX,
    LCR_DLAB,
    LSR_DATA_READY,
    LSR_OVERRUN,
    LSR_THR_EMPTY,
    PORT_BASE_COM1,
    REG_DATA,
    REG_IER,
    REG_IIR_FCR,
    REG_LCR,
    REG_LSR,
    SerialLink,
    Uart16550,
)
from repro.sim.events import EventQueue

CPU_HZ = 1.26e9


class TestPit:
    def _pit(self):
        queue = EventQueue()
        fired = []
        pit = Pit8254(queue, CPU_HZ, lambda: fired.append(queue.now))
        return queue, pit, fired

    def test_program_periodic_fires_at_rate(self):
        queue, pit, fired = self._pit()
        pit.program_periodic(1000.0)  # 1 kHz tick
        one_second = int(CPU_HZ)
        queue.run_until(one_second)
        # 1000 Hz for 1 second with divisor rounding: ~1000 ticks.
        assert 995 <= len(fired) <= 1005

    def test_mode0_oneshot_fires_once(self):
        queue, pit, fired = self._pit()
        pit.port_write(3, 0x30, 1)   # channel 0, lo/hi, mode 0
        pit.port_write(0, 0xFF, 1)
        pit.port_write(0, 0x00, 1)   # count 255
        queue.run_until(int(CPU_HZ))
        assert len(fired) == 1

    def test_zero_reload_means_65536(self):
        queue, pit, fired = self._pit()
        pit.port_write(3, 0x34, 1)
        pit.port_write(0, 0, 1)
        pit.port_write(0, 0, 1)
        expected_period = 65536 / PIT_HZ
        queue.run_until(int(CPU_HZ * expected_period * 2.5))
        assert len(fired) == 2

    def test_latch_and_read_count(self):
        _, pit, _ = self._pit()
        pit.port_write(3, 0x34, 1)
        pit.port_write(0, 0x34, 1)
        pit.port_write(0, 0x12, 1)
        pit.port_write(3, 0x00, 1)   # latch channel 0
        low = pit.port_read(0, 1)
        high = pit.port_read(0, 1)
        assert (high << 8) | low == 0x1234

    def test_reprogram_cancels_pending(self):
        queue, pit, fired = self._pit()
        pit.program_periodic(100.0)
        pit.port_write(3, 0x34, 1)   # command alone cancels pending expiry
        queue.run_until(int(CPU_HZ))
        assert not fired

    def test_bad_frequency_rejected(self):
        _, pit, _ = self._pit()
        with pytest.raises(DeviceError):
            pit.program_periodic(0)
        with pytest.raises(DeviceError):
            pit.program_periodic(10_000_000.0)  # divisor would be 0

    def test_unknown_register_rejected(self):
        _, pit, _ = self._pit()
        with pytest.raises(DeviceError):
            pit.port_write(4, 1, 1)


class TestUart:
    def _uart(self):
        link = SerialLink()
        irqs = {"raised": 0, "lowered": 0}
        uart = Uart16550(
            link,
            raise_irq=lambda: irqs.__setitem__("raised", irqs["raised"] + 1),
            lower_irq=lambda: irqs.__setitem__("lowered",
                                               irqs["lowered"] + 1))
        host = HostSerialPort(link)
        return uart, host, irqs

    def test_transmit_reaches_host(self):
        uart, host, _ = self._uart()
        for byte in b"+$OK#9a":
            uart.port_write(REG_DATA, byte, 1)
        assert host.recv() == b"+$OK#9a"

    def test_receive_from_host(self):
        uart, host, _ = self._uart()
        host.send(b"ab")
        assert uart.port_read(REG_LSR, 1) & LSR_DATA_READY
        assert uart.port_read(REG_DATA, 1) == ord("a")
        assert uart.port_read(REG_DATA, 1) == ord("b")
        assert not uart.port_read(REG_LSR, 1) & LSR_DATA_READY

    def test_thr_always_empty(self):
        uart, _, _ = self._uart()
        assert uart.port_read(REG_LSR, 1) & LSR_THR_EMPTY

    def test_rx_interrupt_raised_when_enabled(self):
        uart, host, irqs = self._uart()
        uart.port_write(REG_IER, IER_RX, 1)
        host.send(b"x")
        assert irqs["raised"] == 1
        assert uart.port_read(REG_IIR_FCR, 1) == IIR_RX
        uart.port_read(REG_DATA, 1)
        assert uart.port_read(REG_IIR_FCR, 1) == IIR_NONE

    def test_no_interrupt_when_disabled(self):
        uart, host, irqs = self._uart()
        host.send(b"x")
        assert irqs["raised"] == 0

    def test_fifo_overrun_flagged_and_sticky_until_read(self):
        # Overrun only happens with flow control off (failure injection).
        link = SerialLink()
        uart = Uart16550(link, flow_control=False)
        host = HostSerialPort(link)
        host.send(bytes(FIFO_DEPTH + 5))
        status = uart.port_read(REG_LSR, 1)
        assert status & LSR_OVERRUN
        # Overrun clears on LSR read.
        assert not uart.port_read(REG_LSR, 1) & LSR_OVERRUN

    def test_flow_control_holds_bytes_instead_of_dropping(self):
        uart, host, _ = self._uart()
        payload = bytes(range(FIFO_DEPTH + 8))
        host.send(payload)
        received = bytearray()
        while uart.port_read(REG_LSR, 1) & LSR_DATA_READY:
            received.append(uart.port_read(REG_DATA, 1))
        assert bytes(received) == payload
        assert not uart.overrun

    def test_divisor_latch(self):
        uart, _, _ = self._uart()
        uart.port_write(REG_LCR, LCR_DLAB, 1)
        uart.port_write(REG_DATA, 0x0C, 1)   # DLL: 9600 baud divisor
        uart.port_write(REG_IER, 0x00, 1)    # DLM
        assert uart.port_read(REG_DATA, 1) == 0x0C
        uart.port_write(REG_LCR, 0x03, 1)    # clear DLAB, 8N1
        assert uart.divisor == 0x0C
        # Data port is a FIFO again.
        assert uart.port_read(REG_DATA, 1) == 0

    def test_fifo_clear_via_fcr(self):
        uart, host, _ = self._uart()
        host.send(b"junk")
        uart.port_write(REG_IIR_FCR, 0x02, 1)
        assert not uart.port_read(REG_LSR, 1) & LSR_DATA_READY

    def test_tx_interrupt_mode(self):
        uart, _, irqs = self._uart()
        uart.port_write(REG_IER, IER_TX, 1)
        assert irqs["raised"] >= 1  # THR empty immediately

    def test_counters(self):
        uart, host, _ = self._uart()
        uart.port_write(REG_DATA, 0x41, 1)
        host.send(b"zz")
        assert uart.tx_count == 1
        assert uart.rx_count == 2


#: Serve one ``g`` packet while the guest holds LCR.DLAB, then again
#: after it clears DLAB; prints the host's view after each service.
_DLAB_SCRIPT = """
import sys
from repro.hw.machine import Machine
from repro.hw.uart import (HostSerialPort, LCR_DLAB, PORT_BASE_COM1,
                           REG_LCR)
from repro.rsp.packets import frame

machine = Machine()
kind = sys.argv[1]
if kind == "bare":
    from repro.baremetal import EmbeddedStub
    service = EmbeddedStub(machine).poll
elif kind == "lvmm":
    from repro.vmm import LightweightVmm
    vmm = LightweightVmm(machine)
    vmm.install()
    service = vmm.service_debugger
else:
    from repro.faults.campaign import StubConsole
    service = StubConsole(machine)._pump
host = HostSerialPort(machine.serial_link)
machine.bus.raw_port_write(PORT_BASE_COM1 + REG_LCR, LCR_DLAB, 1)
host.send(frame(b"g"))
service()
print(repr(host.recv()))
machine.bus.raw_port_write(PORT_BASE_COM1 + REG_LCR, 0x03, 1)
service()
print(repr(host.recv()[:2]))
"""


class TestDrain:
    @pytest.mark.parametrize("kind", ["bare", "lvmm", "campaign"])
    def test_drain_waits_while_dlab_is_set(self, kind):
        """With DLAB set an RBR read returns the divisor latch and pops
        nothing, so a drain that kept reading would never return.  Run
        in a child so a hang fails this test instead of the suite."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", _DLAB_SCRIPT, kind], env=env,
            capture_output=True, text=True, timeout=60, check=True)
        # Nothing is answered under DLAB; the packet waits in the
        # FIFO and is answered (ACK, then the reply) once DLAB clears.
        assert result.stdout.split() == ["b''", "b'+$'"]

    def test_drain_reads_through_the_bus(self):
        machine = Machine()
        host = HostSerialPort(machine.serial_link)
        host.send(bytes(range(FIFO_DEPTH + 8)))
        reads = []
        raw_read = machine.bus.raw_port_read
        machine.bus.raw_port_read = lambda port, size=1: (
            reads.append(port) or raw_read(port, size))
        assert machine.uart.drain(machine.bus) == \
            bytes(range(FIFO_DEPTH + 8))
        # LSR then RBR per byte, and one final LSR.
        assert reads == [PORT_BASE_COM1 + REG_LSR,
                         PORT_BASE_COM1 + REG_DATA] * (FIFO_DEPTH + 8) \
            + [PORT_BASE_COM1 + REG_LSR]
