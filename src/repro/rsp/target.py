"""The target-state interface the debug stub operates on.

The stub itself is monitor-agnostic: the lightweight VMM, the bare-metal
runner and the full VMM each provide a :class:`TargetAdapter` exposing
the guest state they can see.  Register order for ``g``/``G`` packets:
R0..R7, PC, FLAGS — ten 32-bit little-endian values.
"""

from __future__ import annotations

from typing import List, Optional

NUM_REPORTED_REGS = 10
REG_PC_INDEX = 8
REG_FLAGS_INDEX = 9

# Stop reasons reported in T/S packets (POSIX signal numbers, as GDB uses).
SIGINT = 2
SIGILL = 4
SIGTRAP = 5
SIGSEGV = 11

WATCH_WRITE = "watch"
WATCH_READ = "rwatch"

#: GDB target-description XML served via qXfer:features:read.
TARGET_XML = """<?xml version="1.0"?>
<!DOCTYPE target SYSTEM "gdb-target.dtd">
<target version="1.0">
  <architecture>hx32</architecture>
  <feature name="org.repro.hx32.core">
    <reg name="r0" bitsize="32" type="uint32"/>
    <reg name="r1" bitsize="32" type="uint32"/>
    <reg name="r2" bitsize="32" type="uint32"/>
    <reg name="r3" bitsize="32" type="uint32"/>
    <reg name="r4" bitsize="32" type="uint32"/>
    <reg name="r5" bitsize="32" type="uint32"/>
    <reg name="fp" bitsize="32" type="data_ptr"/>
    <reg name="sp" bitsize="32" type="data_ptr"/>
    <reg name="pc" bitsize="32" type="code_ptr"/>
    <reg name="flags" bitsize="32" type="uint32"/>
  </feature>
</target>
"""


class TargetAdapter:
    """What a monitor must implement for the stub to debug its guest."""

    def read_registers(self) -> List[int]:  # pragma: no cover - interface
        raise NotImplementedError

    def write_register(self, index: int, value: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def read_memory(self, addr: int, length: int) -> Optional[bytes]:  # pragma: no cover
        raise NotImplementedError

    def write_memory(self, addr: int, data: bytes) -> bool:  # pragma: no cover
        raise NotImplementedError

    def set_breakpoint(self, addr: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def clear_breakpoint(self, addr: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def set_watchpoint(self, addr: int, length: int,
                       kind: str) -> bool:  # pragma: no cover
        raise NotImplementedError

    def clear_watchpoint(self, addr: int, length: int,
                         kind: str) -> bool:  # pragma: no cover
        raise NotImplementedError

    def resume(self, step: bool) -> None:  # pragma: no cover
        raise NotImplementedError

    def stop_signal(self) -> int:
        """Why the target is currently stopped."""
        return SIGTRAP

    # -- threads (optional; single-threaded defaults) -----------------------
    # GDB thread ids are 1-based; a target with a task table maps task
    # index i to thread id i+1.

    def thread_ids(self) -> List[int]:
        return [1]

    def current_thread_id(self) -> int:
        return 1

    def thread_registers(self, thread_id: int) -> Optional[List[int]]:
        """Registers of a (possibly parked) thread; None if unknown."""
        if thread_id == self.current_thread_id():
            return self.read_registers()
        return None

    def thread_extra_info(self, thread_id: int) -> str:
        return "single-threaded target"


class CpuTargetAdapter(TargetAdapter):
    """Adapter over a raw :class:`repro.hw.cpu.Cpu`.

    Memory access goes through the CPU's translation (what the guest
    sees) but tolerates faults by returning None/False — the debugger
    must never crash the target by probing an unmapped address.
    """

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self._stop_signal = SIGTRAP
        self.resumed = False
        self.step_requested = False

    # -- registers -----------------------------------------------------------

    def read_registers(self) -> List[int]:
        cpu = self.cpu
        return list(cpu.regs) + [cpu.pc, cpu.flags]

    def write_register(self, index: int, value: int) -> None:
        cpu = self.cpu
        if index < 8:
            cpu.regs[index] = value & 0xFFFFFFFF
        elif index == REG_PC_INDEX:
            cpu.pc = value & 0xFFFFFFFF
        elif index == REG_FLAGS_INDEX:
            cpu.flags = value & 0xFFFFFFFF

    # -- memory ------------------------------------------------------------

    def read_memory(self, addr: int, length: int) -> Optional[bytes]:
        return self.cpu.peek_virtual(1, addr, length)  # through DS

    def write_memory(self, addr: int, data: bytes) -> bool:
        from repro.hw.cpu import CpuFault
        try:
            self.cpu.write_virtual(1, addr, data)
            return True
        except CpuFault:
            return False

    # -- execution control ---------------------------------------------------

    def set_breakpoint(self, addr: int) -> bool:
        self.cpu.code_breakpoints.add(addr)
        return True

    def clear_breakpoint(self, addr: int) -> bool:
        self.cpu.code_breakpoints.discard(addr)
        return True

    def set_watchpoint(self, addr: int, length: int, kind: str) -> bool:
        self.cpu.watchpoints.append((addr, length, kind == WATCH_WRITE))
        return True

    def clear_watchpoint(self, addr: int, length: int, kind: str) -> bool:
        entry = (addr, length, kind == WATCH_WRITE)
        if entry in self.cpu.watchpoints:
            self.cpu.watchpoints.remove(entry)
            return True
        return False

    def resume(self, step: bool) -> None:
        self.resumed = True
        self.step_requested = step

    def stop_signal(self) -> int:
        return self._stop_signal
