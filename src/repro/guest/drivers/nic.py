"""HiTactix's gigabit NIC driver (performance-layer model).

Zero-copy send path, as the HiTactix streaming server of Le Moal et
al. (ACM MM'02) describes: TX descriptors point directly into the disk
DMA buffers, so the guest's only per-byte work is the UDP checksum pass
(charged via ``stack.touch_bytes``), not a copy.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.errors import DeviceError
from repro.hw.nic import (
    ICR_TXDW,
    REG_COALESCE,
    REG_ICR,
    REG_IMS,
    REG_TCTL,
    REG_TDBA,
    REG_TDLEN,
    REG_TDT,
    DESCRIPTOR_SIZE,
)
from repro.net.ethernet import HEADER_LEN as ETH_HEADER
from repro.net.ipv4 import HEADER_LEN as IP_HEADER
from repro.net.udp import HEADER_LEN as UDP_HEADER

#: Per-fragment payload on a 1500-byte MTU (8-byte aligned).
FRAGMENT_PAYLOAD = (1500 - IP_HEADER) & ~7
FRAME_OVERHEAD = ETH_HEADER + IP_HEADER

TX_RING_BASE = 0x0001_0000
TX_RING_LEN = 2048


class GuestNicDriver:
    """Descriptor-ring TX driver with ring-occupancy accounting."""

    def __init__(self, machine, stack, coalesce: int = 1,
                 ring_len: int = TX_RING_LEN) -> None:
        self.machine = machine
        self.stack = stack
        self.ring_len = ring_len
        self._tail = 0
        self._clean = 0           # next descriptor to reclaim
        self.frames_queued = 0
        self.frames_reclaimed = 0
        self.ring_full_events = 0
        self.control_frames_sent = 0
        self._control_slot = 0
        #: Optional receive driver harvested from the same ISR.
        self.rx = None
        self._mmio_base = machine.nic_mmio_base
        bus = machine.bus
        for register, value in (
                (REG_TDBA, TX_RING_BASE),
                (REG_TDLEN, ring_len),
                (REG_COALESCE, coalesce),
                (REG_IMS, ICR_TXDW),
                (REG_TCTL, 0x2)):
            bus.mmio_write(self._mmio_base + register, value, 4)

    # ------------------------------------------------------------------

    def _free_slots(self) -> int:
        used = (self._tail - self._clean) % self.ring_len
        return self.ring_len - 1 - used

    def send_segment(self, buffer_addr: int, length: int) -> bool:
        """Queue one UDP segment as IP fragments, zero-copy.

        Returns False (and counts it) when the ring lacks space — the
        caller must retry after completions drain.
        """
        fragments: List[Tuple[int, int]] = []
        offset = 0
        payload = length + UDP_HEADER
        while offset < payload:
            chunk = min(FRAGMENT_PAYLOAD, payload - offset)
            fragments.append((buffer_addr + offset, chunk + FRAME_OVERHEAD))
            offset += chunk
        if len(fragments) > self._free_slots():
            self.ring_full_events += 1
            return False

        # Guest protocol work: checksum pass over the payload plus
        # per-frame header construction.
        self.stack.touch_bytes(length)
        self.stack.guest_cycles(
            len(fragments) * self.stack.cost.guest_frame_cycles)
        self.stack.privileged_op()   # queue lock around the ring

        memory = self.machine.memory
        for addr, frame_len in fragments:
            descriptor = struct.pack("<IIII", addr, frame_len, 1, 0)
            memory.write(TX_RING_BASE + self._tail * DESCRIPTOR_SIZE,
                         descriptor)
            self._tail = (self._tail + 1) % self.ring_len
        self.frames_queued += len(fragments)

        # One doorbell per segment (the batching real drivers do).
        self.machine.bus.mmio_write(self._mmio_base + REG_TDT, self._tail, 4)
        self.stack.privileged_op()
        return True

    def handle_interrupt(self) -> None:
        """NIC ISR: read ICR, reclaim TX, harvest RX, EOI."""
        bus = self.machine.bus
        self.stack.privileged_op()
        bus.mmio_read(self._mmio_base + REG_ICR, 4)
        if self.rx is not None:
            self.rx.harvest()
        # Reclaim finished descriptors (DD bit set by the NIC).
        memory = self.machine.memory
        while self._clean != self._tail:
            status = memory.read_u32(
                TX_RING_BASE + self._clean * DESCRIPTOR_SIZE + 12)
            if not status & 1:
                break
            self.frames_reclaimed += 1
            self._clean = (self._clean + 1) % self.ring_len
        bus.port_write(0xA0, 0x20, 1)   # slave EOI (IRQ 10)
        bus.port_write(0x20, 0x20, 1)
        self.stack.privileged_op()


RX_RING_BASE = 0x1_8000
RX_BUFFER_BASE = 0x1_9000
RX_BUFFER_SIZE = 2048


class GuestNicRxDriver:
    """Receive side: ring setup, frame harvest, descriptor replenish.

    The streaming workload is transmit-dominated, but the guest still
    needs a control plane (ARP, at minimum) — and the RX path is where
    a new NIC's driver bugs usually live, i.e. what the debugging
    environment exists to debug.
    """

    def __init__(self, machine, stack, ring_len: int = 32,
                 on_frame=None) -> None:
        from repro.hw.nic import (
            ICR_RXDW,
            REG_IMS,
            REG_RDBA,
            REG_RDLEN,
            REG_RDT,
            make_rx_descriptor,
        )
        self.machine = machine
        self.stack = stack
        self.ring_len = ring_len
        self.on_frame = on_frame or (lambda frame: None)
        self._head = 0
        self.frames_received = 0
        self._mmio_base = machine.nic_mmio_base
        memory = machine.memory
        for index in range(ring_len):
            memory.write(RX_RING_BASE + index * DESCRIPTOR_SIZE,
                         make_rx_descriptor(
                             RX_BUFFER_BASE + index * RX_BUFFER_SIZE,
                             RX_BUFFER_SIZE))
        bus = machine.bus
        bus.mmio_write(self._mmio_base + REG_RDBA, RX_RING_BASE, 4)
        bus.mmio_write(self._mmio_base + REG_RDLEN, ring_len, 4)
        bus.mmio_write(self._mmio_base + REG_RDT, ring_len - 1, 4)
        # Enable RX interrupts on top of whatever TX already enabled.
        current = bus.mmio_read(self._mmio_base + REG_IMS, 4)
        bus.mmio_write(self._mmio_base + REG_IMS, current | ICR_RXDW, 4)

    def harvest(self) -> int:
        """Pull completed RX descriptors; returns frames harvested."""
        from repro.hw.nic import REG_RDT, make_rx_descriptor
        memory = self.machine.memory
        harvested = 0
        while True:
            base = RX_RING_BASE + self._head * DESCRIPTOR_SIZE
            status = memory.read_u32(base + 12)
            if not status & 1:   # DD clear: nothing more
                break
            addr = memory.read_u32(base)
            length = memory.read_u32(base + 4)
            frame = memory.read(addr, length)
            self.stack.touch_bytes(length)
            self.stack.guest_cycles(
                self.stack.cost.guest_frame_cycles)
            self.frames_received += 1
            harvested += 1
            # Replenish the descriptor and return it to the hardware.
            memory.write(base, make_rx_descriptor(addr, RX_BUFFER_SIZE))
            self.machine.bus.mmio_write(
                self._mmio_base + REG_RDT, self._head, 4)
            self._head = (self._head + 1) % self.ring_len
            self.on_frame(frame)
        return harvested


CONTROL_STAGING_BASE = 0x1_F000
CONTROL_STAGING_SLOTS = 4
CONTROL_STAGING_SIZE = 2048


def send_raw_frame(driver: "GuestNicDriver", frame: bytes) -> bool:
    """Transmit one control-plane frame (ARP reply etc.) through the
    TX ring, using a small rotating staging area (the control path is
    copying, unlike the zero-copy data path)."""
    if len(frame) > CONTROL_STAGING_SIZE:
        raise DeviceError(f"control frame of {len(frame)} too large")
    if driver._free_slots() < 1:
        driver.ring_full_events += 1
        return False
    slot = driver._control_slot
    driver._control_slot = (slot + 1) % CONTROL_STAGING_SLOTS
    addr = CONTROL_STAGING_BASE + slot * CONTROL_STAGING_SIZE
    memory = driver.machine.memory
    memory.write(addr, frame)
    driver.stack.touch_bytes(len(frame))
    driver.stack.guest_cycles(driver.stack.cost.guest_frame_cycles)
    memory.write(TX_RING_BASE + driver._tail * DESCRIPTOR_SIZE,
                 struct.pack("<IIII", addr, len(frame), 1, 0))
    driver._tail = (driver._tail + 1) % driver.ring_len
    driver.frames_queued += 1
    driver.control_frames_sent += 1
    driver.machine.bus.mmio_write(
        driver._mmio_base + REG_TDT, driver._tail, 4)
    return True


GuestNicDriver.send_raw_frame = send_raw_frame
