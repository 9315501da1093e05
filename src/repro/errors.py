"""Exception hierarchy shared across the reproduction.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish simulator-infrastructure failures from *simulated* machine
faults (which are modelled as CPU exceptions, not Python exceptions).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel was misused."""


class MemoryError_(ReproError):
    """Physical memory access outside the installed range."""


class BusError(ReproError):
    """No device is mapped at the accessed port or MMIO address."""


class AssemblerError(ReproError):
    """Source-level assembly error (bad mnemonic, operand, duplicate label)."""


class DisassemblerError(ReproError):
    """Byte stream cannot be decoded back into instructions."""


class CpuHalted(ReproError):
    """Raised internally when the CPU executes HLT with interrupts disabled
    at the outermost privilege level, i.e. the machine can never resume."""


class TripleFault(ReproError):
    """Fault while delivering a double fault: the simulated machine resets.

    A real IA-32 part would assert shutdown; the monitor layers catch this
    to demonstrate debugger survivability (experiment E4).
    """


class ProtocolError(ReproError):
    """Malformed GDB Remote Serial Protocol traffic."""


class RspTransportError(ProtocolError):
    """The RSP transport gave up: the retry policy exhausted its
    attempts (timeouts, NAKs, lost replies) without a usable reply."""


class FaultPlanError(ReproError):
    """A fault-injection plan or rule was misconfigured."""


class DeviceError(ReproError):
    """A device model was programmed inconsistently by the driver."""


class MonitorError(ReproError):
    """The virtual machine monitor reached an inconsistent state."""


class CalibrationError(ReproError):
    """The performance cost model rejected its configuration."""


class JournalError(ReproError):
    """A record/replay journal is malformed or cannot be applied."""
