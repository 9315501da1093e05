"""Mailbox-style SCSI host bus adapter with DMA.

This stands in for the paper's Ultra160 controller.  It is one of the
devices the lightweight VMM deliberately does **not** emulate: the guest
driver programs it directly, and it DMAs straight into guest physical
memory — that directness is where the paper's I/O-efficiency claim comes
from.

Programming model (32-bit port registers at the HBA's port base):

    +0x00  COMMAND   write 1: start the request whose block is in MAILBOX
                     write 2: controller reset
    +0x04  MAILBOX   guest-physical address of a request block
    +0x08  STATUS    bit0: request(s) in flight
    +0x0C  INTSTAT   read: number of unacknowledged completions
                     write: acknowledge (clears, deasserts IRQ)

Request block layout in guest memory (32 bytes)::

    +0   target id        (u32)
    +4   CDB              (16 bytes, SCSI-2 encoding)
    +20  data buffer      (u32, guest-physical)
    +24  data length      (u32, bytes)
    +28  completion code  (u32, written by the HBA; 0 = GOOD)

Supported CDBs: TEST UNIT READY (0x00), REQUEST SENSE (0x03), INQUIRY
(0x12), READ CAPACITY(10) (0x25), READ(10) (0x28), WRITE(10) (0x2A).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import DeviceError
from repro.hw.bus import PortDevice
from repro.hw.disk import BLOCK_SIZE, Disk
from repro.sim.events import EventQueue

PORT_BASE_SCSI = 0x1C00
PORT_SPAN = 0x10
IRQ_SCSI = 11

REG_COMMAND = 0x00
REG_MAILBOX = 0x04
REG_STATUS = 0x08
REG_INTSTAT = 0x0C

CMD_START = 1
CMD_RESET = 2

REQUEST_BLOCK_SIZE = 32

# Completion codes (returned in the request block).
COMP_GOOD = 0
COMP_CHECK_CONDITION = 2
COMP_BAD_TARGET = 0x101
COMP_BAD_OPCODE = 0x102
COMP_BAD_LBA = 0x103
COMP_TRANSPORT = 0x104   # bus/transport failure: no status from the target

# CDB opcodes.
OP_TEST_UNIT_READY = 0x00
OP_REQUEST_SENSE = 0x03
OP_INQUIRY = 0x12
OP_READ_CAPACITY = 0x25
OP_READ_10 = 0x28
OP_WRITE_10 = 0x2A


@dataclass
class _Request:
    target: int
    cdb: bytes
    buffer: int
    length: int
    block_addr: int


@dataclass
class ScsiFault:
    """What a fault hook asks the HBA to do to one request.

    ``kind`` is ``"medium"`` (CHECK CONDITION with ``sense``) or
    ``"transport"`` (bus failure, :data:`COMP_TRANSPORT`, no sense
    data).  This is the hook-point half of the fault-injection API; the
    policy half (when to fire, with what parameters) lives in
    :mod:`repro.faults`.
    """

    kind: str
    sense: int = 0x03  # MEDIUM ERROR


def encode_request_block(target: int, cdb: bytes, buffer: int,
                         length: int) -> bytes:
    """Build the 32-byte request block the driver writes to memory."""
    if len(cdb) > 16:
        raise DeviceError(f"CDB too long: {len(cdb)}")
    return struct.pack("<I16sIII", target, cdb.ljust(16, b"\0"),
                       buffer, length, 0)


def cdb_read10(lba: int, count: int) -> bytes:
    return struct.pack(">BBIBHB", OP_READ_10, 0, lba, 0, count, 0)


def cdb_write10(lba: int, count: int) -> bytes:
    return struct.pack(">BBIBHB", OP_WRITE_10, 0, lba, 0, count, 0)


def cdb_inquiry(alloc: int = 36) -> bytes:
    return bytes([OP_INQUIRY, 0, 0, 0, alloc & 0xFF, 0])


def cdb_read_capacity() -> bytes:
    return bytes([OP_READ_CAPACITY]) + bytes(9)


def cdb_test_unit_ready() -> bytes:
    return bytes(6)


class ScsiHba(PortDevice):
    """The adapter: up to 8 targets, one outstanding request per target."""

    def __init__(self, queue: EventQueue, memory, cpu_hz: float,
                 raise_irq: Callable[[], None],
                 lower_irq: Callable[[], None]) -> None:
        self._queue = queue
        self._memory = memory
        self._cpu_hz = cpu_hz
        self._raise_irq = raise_irq
        self._lower_irq = lower_irq
        self._targets: Dict[int, Disk] = {}
        self._mailbox = 0
        self._in_flight = 0
        self._completions: List[int] = []  # request-block addresses
        self._sense: Dict[int, int] = {}
        self.requests_started = 0
        self.bytes_dma = 0
        #: Fault hook consulted once per dispatched request; returns a
        #: :class:`ScsiFault` to fail it (see repro.faults.DiskInjector).
        self.fault_hook: Optional[
            Callable[[_Request, Disk], Optional[ScsiFault]]] = None
        #: DMA hook: may rewrite (corrupt) outbound DMA payloads.
        self.dma_fault_hook: Optional[
            Callable[[_Request, bytes], bytes]] = None
        self.faults_injected = 0

    def attach(self, target: int, disk: Disk) -> None:
        if not 0 <= target < 8:
            raise DeviceError(f"target id {target} out of range")
        if target in self._targets:
            raise DeviceError(f"target {target} already attached")
        self._targets[target] = disk

    # -- port interface ------------------------------------------------------

    def port_write(self, offset: int, value: int, size: int) -> None:
        if offset == REG_COMMAND:
            if value == CMD_START:
                self._start()
            elif value == CMD_RESET:
                self._reset()
            else:
                raise DeviceError(f"unknown HBA command {value:#x}")
            return
        if offset == REG_MAILBOX:
            self._mailbox = value & 0xFFFFFFFF
            return
        if offset == REG_INTSTAT:
            self._completions.clear()
            self._lower_irq()
            return
        raise DeviceError(f"write to read-only HBA register {offset:#x}")

    def port_read(self, offset: int, size: int) -> int:
        if offset == REG_COMMAND:
            return 0
        if offset == REG_MAILBOX:
            return self._mailbox
        if offset == REG_STATUS:
            return 1 if self._in_flight else 0
        if offset == REG_INTSTAT:
            return len(self._completions)
        return 0

    def pop_completion(self) -> Optional[int]:
        """Driver-side helper: pop one completed request-block address."""
        if not self._completions:
            return None
        addr = self._completions.pop(0)
        if not self._completions:
            self._lower_irq()
        return addr

    # -- snapshot support ----------------------------------------------------

    def state(self) -> dict:
        """Registers and completion queue.  The IRQ line is the PIC's
        state; in-flight requests are not captured (their completion
        events are closures), only counted."""
        return {
            "mailbox": self._mailbox,
            "in_flight": self._in_flight,
            "completions": list(self._completions),
            "sense": {str(k): v for k, v in sorted(self._sense.items())},
            "requests_started": self.requests_started,
        }

    def load_state(self, state: dict) -> None:
        self._mailbox = state["mailbox"]
        self._in_flight = state["in_flight"]
        self._completions[:] = state["completions"]
        self._sense = {int(k): v for k, v in state["sense"].items()}
        self.requests_started = state["requests_started"]

    # -- request processing ------------------------------------------------------

    def _reset(self) -> None:
        self._in_flight = 0
        self._completions.clear()
        self._sense.clear()
        self._lower_irq()

    def _start(self) -> None:
        raw = self._memory.read(self._mailbox, REQUEST_BLOCK_SIZE)
        target, cdb, buffer, length, _ = struct.unpack("<I16sIII", raw)
        request = _Request(target, cdb, buffer, length, self._mailbox)
        self.requests_started += 1
        self._in_flight += 1
        disk = self._targets.get(target)
        if disk is None:
            self._finish(request, COMP_BAD_TARGET, delay_cycles=100)
            return
        self._dispatch(request, disk)

    def _dispatch(self, request: _Request, disk: Disk) -> None:
        opcode = request.cdb[0]
        fault = self.fault_hook(request, disk) if self.fault_hook else None
        if fault is not None:
            self.faults_injected += 1
            if fault.kind == "transport":
                self._finish(request, COMP_TRANSPORT, delay_cycles=500)
            else:
                self._sense[request.target] = fault.sense
                self._finish(request, COMP_CHECK_CONDITION,
                             delay_cycles=1000)
            return
        if opcode == OP_TEST_UNIT_READY:
            self._finish(request, COMP_GOOD, delay_cycles=200)
            return
        if opcode == OP_REQUEST_SENSE:
            sense = self._sense.pop(request.target, 0)
            payload = bytes([0x70, 0, sense & 0xFF]) + bytes(15)
            self._dma_out(request, payload)
            self._finish(request, COMP_GOOD, delay_cycles=200)
            return
        if opcode == OP_INQUIRY:
            payload = (bytes([0x00, 0x00, 0x02, 0x02, 31]) + bytes(3)
                       + b"REPRO   " + b"ULTRA160 DISK   " + b"1.0 ")
            self._dma_out(request, payload)
            self._finish(request, COMP_GOOD, delay_cycles=200)
            return
        if opcode == OP_READ_CAPACITY:
            payload = struct.pack(">II", disk.blocks - 1, BLOCK_SIZE)
            self._dma_out(request, payload)
            self._finish(request, COMP_GOOD, delay_cycles=200)
            return
        if opcode in (OP_READ_10, OP_WRITE_10):
            _, _, lba, _, count, _ = struct.unpack(">BBIBHB",
                                                   request.cdb[:10])
            if lba + count > disk.blocks:
                self._finish(request, COMP_BAD_LBA, delay_cycles=200)
                return
            delay = int(disk.service_seconds(lba, count) * self._cpu_hz)
            if opcode == OP_READ_10:
                def complete_read() -> None:
                    data = disk.read_blocks(lba, count)
                    self._dma_out(request, data[:request.length])
                    self._complete(request, COMP_GOOD)
                self._queue.schedule_in(delay, complete_read, name="scsi-read")
            else:
                def complete_write() -> None:
                    data = self._memory.read(
                        request.buffer,
                        min(request.length, count * BLOCK_SIZE))
                    padded = data.ljust(count * BLOCK_SIZE, b"\0")
                    disk.write_blocks(lba, padded)
                    self.bytes_dma += len(data)
                    self._complete(request, COMP_GOOD)
                self._queue.schedule_in(delay, complete_write,
                                        name="scsi-write")
            return
        self._finish(request, COMP_BAD_OPCODE, delay_cycles=100)

    def _dma_out(self, request: _Request, payload: bytes) -> None:
        clipped = payload[:request.length]
        if self.dma_fault_hook is not None:
            clipped = self.dma_fault_hook(request, clipped)
        self._memory.write(request.buffer, clipped)
        self.bytes_dma += len(clipped)

    def _finish(self, request: _Request, code: int,
                delay_cycles: int) -> None:
        self._queue.schedule_in(
            delay_cycles, lambda: self._complete(request, code),
            name="scsi-complete")

    def _complete(self, request: _Request, code: int) -> None:
        self._memory.write_u32(request.block_addr + 28, code)
        self._in_flight -= 1
        self._completions.append(request.block_addr)
        self._raise_irq()
