"""``Uart16550.transmit(data)`` must be indistinguishable from
``len(data)`` THR writes: same link queues, FIFO, counters, PIC state,
tap calls and IRQ raises, in every UART state — including the states
where it falls back to the per-byte path (DLAB set, TX interrupts on,
an RX interrupt due).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.pic import PicPair
from repro.hw.uart import (
    FIFO_DEPTH,
    IRQ_COM1,
    REG_DATA,
    SerialLink,
    Uart16550,
)


class _Twin:
    """A link, a PIC pair and a UART wired as ``Machine`` wires them,
    with every observable side effect logged."""

    def __init__(self, case: dict) -> None:
        self.link = SerialLink()
        self.pic = PicPair()
        self.uart = Uart16550(
            self.link,
            raise_irq=lambda: self.pic.raise_irq(IRQ_COM1),
            lower_irq=lambda: self.pic.lower_irq(IRQ_COM1),
            flow_control=case["flow_control"])
        self.uart.ier = case["ier"]
        self.uart.lcr = case["lcr"]
        self.uart._rx.extend(case["rx"])
        self.link.b_to_a.extend(case["h2t"])
        if case["irq_pending"]:
            self.pic.master.irr |= 1 << IRQ_COM1
        self.log = []
        if case["fault_seed"] is not None:
            rng = random.Random(case["fault_seed"])

            def hook(direction, byte):
                self.log.append(("hook", direction, byte))
                if rng.random() < 0.2:
                    return None
                if rng.random() < 0.2:
                    return byte ^ (1 + rng.randrange(255))
                return byte
            self.link.fault_hook = hook
        if case["link_tap"]:
            self.link.taps.subscribe(
                lambda *args: self.log.append(("tap",) + args))
        self.pic.raise_taps.subscribe(
            lambda irq: self.log.append(("raise", irq)))

    def observed(self) -> dict:
        uart, link, pic = self.uart, self.link, self.pic
        return {
            "a_to_b": list(link.a_to_b), "b_to_a": list(link.b_to_a),
            "rx": list(uart._rx), "tx_count": uart.tx_count,
            "rx_count": uart.rx_count, "overrun": uart.overrun,
            "divisor": uart.divisor,
            "irr": (pic.master.irr, pic.slave.irr),
            "dropped": link.bytes_dropped,
            "corrupted": link.bytes_corrupted, "log": self.log,
        }


_CASES = st.fixed_dictionaries({
    "ier": st.integers(min_value=0, max_value=0x0F),
    "lcr": st.sampled_from([0x00, 0x03, 0x80, 0x83]),
    "rx": st.just(b"") | st.binary(min_size=1, max_size=FIFO_DEPTH),
    "h2t": st.just(b"") | st.binary(min_size=1, max_size=24),
    "flow_control": st.booleans(),
    "irq_pending": st.booleans(),
    "fault_seed": st.none() | st.integers(min_value=0, max_value=2**16),
    "link_tap": st.booleans(),
})


class TestTransmitEqualsThrWrites:
    @given(case=_CASES, data=st.binary(max_size=64))
    @settings(max_examples=400, deadline=None)
    def test_transmit_matches_per_byte_writes(self, case, data):
        bulk, per_byte = _Twin(case), _Twin(case)
        bulk.uart.transmit(data)
        for byte in data:
            per_byte.uart.port_write(REG_DATA, byte, 1)
        assert bulk.observed() == per_byte.observed()

    @given(data=st.binary(min_size=1, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_quiet_uart_takes_the_bulk_path(self, data):
        """The stub's usual state (RX interrupts on, nothing received)
        makes no per-byte THR write at all."""
        twin = _Twin({"ier": 0x01, "lcr": 0x03, "rx": b"", "h2t": b"",
                      "flow_control": True, "irq_pending": False,
                      "fault_seed": None, "link_tap": False})
        writes = []
        twin.uart.port_write = lambda *args: writes.append(args)
        twin.uart.transmit(data)
        assert writes == []
        assert bytes(twin.link.a_to_b) == data
        assert twin.uart.tx_count == len(data)
