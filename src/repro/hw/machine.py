"""The assembled target machine.

``Machine`` wires together everything on a PC/AT-style board: CPU,
physical memory, the port/MMIO bus, the 8259 PIC pair, the 8254 PIT, the
16550 debug UART, a SCSI HBA with attached disks, and the gigabit NIC.

Execution interleaves the CPU interpreter with the discrete-event queue:
the CPU's retired-cycle counter *is* simulated time, so device delays
(disk service, wire pacing, timer periods) are honoured relative to the
instruction stream.  When the CPU halts, time fast-forwards to the next
device event — exactly the semantics of HLT on the idle loop of a real
OS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.hw.bus import IoBus
from repro.hw.cpu import Cpu
from repro.hw.disk import Disk
from repro.hw.mem import PhysicalMemory
from repro.hw.nic import IRQ_NIC, MMIO_BASE_NIC, MMIO_SPAN, Nic
from repro.hw.pic import (
    MASTER_CMD,
    SLAVE_CMD,
    PicPair,
    standard_setup,
)
from repro.hw.pit import PORT_BASE as PIT_PORT_BASE, Pit8254
from repro.hw.scsi import IRQ_SCSI, PORT_BASE_SCSI, PORT_SPAN, ScsiHba
from repro.hw.uart import IRQ_COM1, PORT_BASE_COM1, SerialLink, Uart16550
from repro.sim.budget import CycleBudget
from repro.sim.events import EventQueue

IRQ_PIT = 0

DEFAULT_CPU_HZ = 1.26e9       # the paper's 1.26 GHz Pentium III
DEFAULT_MEMORY = 16 << 20     # 16 MiB is plenty for the guest images


@dataclass
class MachineConfig:
    """Knobs for building a :class:`Machine`."""

    memory_size: int = DEFAULT_MEMORY
    cpu_hz: float = DEFAULT_CPU_HZ
    #: (blocks, seed) per SCSI disk; the paper's rig has three drives.
    disks: List[tuple] = field(default_factory=lambda: [
        (262144, 1), (262144, 2), (262144, 3)])  # 128 MiB each
    disk_rate_bytes_per_sec: float = 40e6
    with_nic: bool = True
    #: Run the translation validator on every compiled superblock and
    #: refuse blocks it cannot prove equivalent (see
    #: :mod:`repro.analysis.tv`).  None defers to ``Cpu.VERIFY_DEFAULT``.
    verify_translations: Optional[bool] = None
    #: Where the NIC's register window lives.  The default sits in
    #: PCI-hole territory above RAM; functional guests that must reach
    #: it through segmentation (whose limits stop below the monitor)
    #: relocate it into a memory hole below the monitor region.
    nic_mmio_base: int = MMIO_BASE_NIC


class Machine:
    """A complete simulated target machine."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        self.queue = EventQueue()
        self.budget = CycleBudget(self.config.cpu_hz)
        self.memory = PhysicalMemory(self.config.memory_size)
        self.bus = IoBus()
        self.cpu = Cpu(self.memory, self.bus, self.budget,
                       verify_translations=self.config.verify_translations)

        # Interrupt controller pair.
        self.pic = PicPair()
        self.bus.register_ports(MASTER_CMD, 2, self.pic.master,
                                "pic-master")
        self.bus.register_ports(SLAVE_CMD, 2, self.pic.slave,
                                "pic-slave")
        self.cpu.irq_source = self.pic

        # Timer.
        self.pit = Pit8254(self.queue, self.config.cpu_hz,
                           lambda: self.pic.raise_irq(IRQ_PIT))
        self.bus.register_ports(PIT_PORT_BASE, 4, self.pit, "pit")

        # Debug serial port.
        self.serial_link = SerialLink()
        self.uart = Uart16550(
            self.serial_link,
            raise_irq=lambda: self.pic.raise_irq(IRQ_COM1),
            lower_irq=lambda: self.pic.lower_irq(IRQ_COM1))
        self.bus.register_ports(PORT_BASE_COM1, 8, self.uart, "uart")

        # Storage.
        self.hba = ScsiHba(
            self.queue, self.memory, self.config.cpu_hz,
            raise_irq=lambda: self.pic.raise_irq(IRQ_SCSI),
            lower_irq=lambda: self.pic.lower_irq(IRQ_SCSI))
        self.disks: List[Disk] = []
        for target, (blocks, seed) in enumerate(self.config.disks):
            disk = Disk(blocks, seed=seed,
                        sustained_bytes_per_sec=self.config
                        .disk_rate_bytes_per_sec)
            self.hba.attach(target, disk)
            self.disks.append(disk)
        self.bus.register_ports(PORT_BASE_SCSI, PORT_SPAN, self.hba, "scsi")

        # Wall clock.
        from repro.hw.rtc import IRQ_RTC, PORT_BASE_RTC, Rtc
        self.rtc = Rtc(self.queue, self.config.cpu_hz,
                       raise_irq=lambda: self.pic.raise_irq(IRQ_RTC))
        self.bus.register_ports(PORT_BASE_RTC, 2, self.rtc, "rtc")

        # Network.
        self.nic: Optional[Nic] = None
        self.nic_mmio_base = self.config.nic_mmio_base
        if self.config.with_nic:
            self.nic = Nic(
                self.queue, self.memory, self.config.cpu_hz,
                raise_irq=lambda: self.pic.raise_irq(IRQ_NIC),
                lower_irq=lambda: self.pic.lower_irq(IRQ_NIC))
            self.bus.register_mmio(self.nic_mmio_base, MMIO_SPAN,
                                   self.nic, "nic")

    # ------------------------------------------------------------------

    def program_pic_defaults(self) -> None:
        """Program the PIC pair with the canonical vector bases (32/40)."""
        standard_setup(self.pic)

    def sync_events(self) -> None:
        """Fire every device event due at or before the CPU's cycle count."""
        self.queue.run_until(self.cpu.cycle_count)

    def run(self, max_instructions: int = 1_000_000,
            until: Optional[Callable[[], bool]] = None) -> int:
        """Co-simulate CPU and devices in the CPU's run loop.

        Stops when ``until()`` returns True, the instruction cap is hit,
        or the machine is irrecoverably halted.  Returns the steps taken
        (see :meth:`Cpu.run`).
        """
        return self.cpu.run(max_instructions, until, events=self)

    # ------------------------------------------------------------------

    def load_program(self, program) -> None:
        """Load an assembled :class:`repro.asm.Program` and aim PC at it."""
        program.load_into(self.memory)
        self.cpu.pc = program.origin
