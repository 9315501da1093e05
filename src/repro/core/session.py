"""DebugSession: the whole debugging environment of Fig. 2.1 in one object.

Host side: an :class:`~repro.rsp.client.RspClient` (driven by the
command-line debugger or directly by library users).  Target side: a
machine running a guest under a chosen monitor, with the RSP stub inside
the monitor.  The two halves talk over the simulated serial link.

The session provides the co-operative scheduling glue: when the host
waits for a reply, the target gets pumped (monitor services the UART;
if the guest is running, it executes in slices so breakpoints can hit).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import MonitorError
from repro.hw.machine import Machine, MachineConfig
from repro.hw.uart import HostSerialPort
from repro.rsp.client import RspClient
from repro.vmm.monitor import LightweightVmm
from repro.fullvmm.monitor import FullVmm

#: Monitors that can host a debug session (a stub needs a monitor; the
#: bare-metal stack debugs via repro.baremetal.EmbeddedStub instead,
#: with the stability caveats experiment E4 demonstrates).
MONITORS = {
    "lvmm": LightweightVmm,
    "fullvmm": FullVmm,
}

RUN_SLICE = 2000  # guest instructions executed per host pump


class DebugSession:
    """A host debugger attached to a monitored guest."""

    def __init__(self, machine: Optional[Machine] = None,
                 monitor: str = "lvmm",
                 cost_model=None) -> None:
        self.machine = machine or Machine(MachineConfig())
        if monitor not in MONITORS:
            raise MonitorError(
                f"unknown monitor {monitor!r}; pick from {sorted(MONITORS)}")
        self.monitor = MONITORS[monitor](self.machine, cost_model)
        self.monitor.install()
        self._host_port = HostSerialPort(self.machine.serial_link)
        self.client = RspClient(
            send=self._host_port.send,
            recv=self._host_port.recv,
            pump=self._pump)
        self._booted = False
        from repro.core.snapshot import CheckpointStore
        self.checkpoints = CheckpointStore()

    # ------------------------------------------------------------------

    def load_and_boot(self, *programs) -> None:
        """Load assembled program images and boot the first one's origin."""
        if not programs:
            raise MonitorError("need at least one program image")
        for program in programs:
            program.load_into(self.machine.memory)
        self.monitor.boot_guest(programs[0].origin)
        # Targets attach stopped, like gdbserver: the first 'c' starts it.
        self.monitor.stopped = True
        self._booted = True

    # ------------------------------------------------------------------

    def _pump(self) -> None:
        """One scheduling quantum for the target."""
        self.monitor.service_debugger()
        if not self.monitor.stopped and not self.monitor.guest_dead:
            self.monitor.run(RUN_SLICE)

    def run_guest(self, max_instructions: int = 1_000_000,
                  until: Optional[Callable[[], bool]] = None) -> int:
        """Run the guest outside debugger control (no host waiting)."""
        if not self._booted:
            raise MonitorError("boot a guest first")
        self.monitor.stopped = False
        return self.monitor.run(max_instructions, until=until)

    # -- convenience wrappers over the RSP client ------------------------------

    def attach(self) -> int:
        """Handshake like GDB: query support, then the halt reason."""
        self.client.exchange(b"qSupported:swbreak+")
        return self.client.query_halt_reason()

    def checkpoint(self, name: str = "default") -> None:
        """Snapshot the stopped guest under ``name``."""
        from repro.core import snapshot as snap
        self.checkpoints.save(
            name, snap.capture(self.machine, self.monitor, label=name))

    def restore(self, name: str = "default") -> None:
        """Rewind the guest to a named checkpoint."""
        from repro.core import snapshot as snap
        snap.restore(self.machine, self.checkpoints.get(name),
                     self.monitor)

    @property
    def guest_alive(self) -> bool:
        return not self.monitor.guest_dead

    @property
    def console_output(self) -> bytes:
        return bytes(self.monitor.console)
