"""The I/O bus: port-I/O and MMIO routing with intercept hooks.

The bus is where the three execution stacks differ:

* **bare metal** — guest accesses go straight to the device models;
* **lightweight VMM** — accesses to the *debug-critical* devices (PIC,
  PIT, debug UART) are intercepted and emulated; everything else —
  notably the SCSI HBA and the NIC — passes straight through;
* **full VMM** — *every* access is intercepted and serviced by a device
  emulation model behind a world switch.

Monitors install an :class:`IoIntercept`; the bus consults it before
dispatching.  This mirrors how a real VMM uses the I/O permission bitmap
and page protections to choose what traps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import BusError
from repro.obs.taps import TapPoint


class PortDevice:
    """Interface for devices on the port-I/O space."""

    def port_read(self, port: int, size: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def port_write(self, port: int, value: int, size: int) -> None:  # pragma: no cover
        raise NotImplementedError


class MmioDevice:
    """Interface for devices on the memory-mapped I/O space."""

    def mmio_read(self, offset: int, size: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def mmio_write(self, offset: int, value: int, size: int) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass
class _PortRange:
    start: int
    end: int  # exclusive
    device: PortDevice
    name: str


@dataclass
class _MmioRange:
    start: int
    end: int  # exclusive
    device: MmioDevice
    name: str


class IoIntercept:
    """Monitor hook consulted before every guest I/O access.

    Return True from ``intercepts_*`` to claim the access; the bus then
    calls the corresponding ``emulate_*`` instead of the real device.
    """

    def intercepts_port(self, port: int) -> bool:
        return False

    def intercepts_mmio(self, addr: int) -> bool:
        return False

    def emulate_port_read(self, port: int, size: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def emulate_port_write(self, port: int, value: int, size: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def emulate_mmio_read(self, addr: int, size: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def emulate_mmio_write(self, addr: int, value: int, size: int) -> None:  # pragma: no cover
        raise NotImplementedError


class IoBus:
    """Routes port-I/O and MMIO to registered devices."""

    def __init__(self) -> None:
        self._ports: List[_PortRange] = []
        self._mmio: List[_MmioRange] = []
        #: Lowest start and highest end of any MMIO range (both 0 while
        #: there is none): an access wholly outside them is plain RAM.
        self.mmio_start = 0
        self.mmio_end = 0
        self.intercept: Optional[IoIntercept] = None
        #: Counters used by tests and benchmarks: (reads, writes).
        self.port_accesses = 0
        self.mmio_accesses = 0
        self.intercepted_accesses = 0
        #: Optional cost hook called once per guest access with
        #: ``intercepted`` — the perf layer charges hardware access
        #: latency for passthrough accesses here (intercepted accesses
        #: are monitor memory operations and charge via the intercept).
        self.access_charger: Optional[Callable[[bool], None]] = None
        #: Multicast observation point notified as ``taps(kind, addr,
        #: size, intercepted)`` for every *guest-visible* access
        #: (``kind`` is "port-read", "port-write", "mmio-read" or
        #: "mmio-write"; raw monitor-internal accesses are not
        #: observed).  The tracer subscribes here; observers must only
        #: observe.
        self.access_taps = TapPoint()

    # -- registration ---------------------------------------------------------

    def register_ports(self, start: int, count: int, device: PortDevice,
                       name: str = "") -> None:
        end = start + count
        for existing in self._ports:
            if start < existing.end and existing.start < end:
                raise BusError(
                    f"port range [{start:#x},{end:#x}) for {name!r} overlaps "
                    f"{existing.name!r}")
        self._ports.append(_PortRange(start, end, device, name or repr(device)))

    def register_mmio(self, start: int, length: int, device: MmioDevice,
                      name: str = "") -> None:
        end = start + length
        for existing in self._mmio:
            if start < existing.end and existing.start < end:
                raise BusError(
                    f"MMIO range [{start:#x},{end:#x}) for {name!r} overlaps "
                    f"{existing.name!r}")
        self._mmio.append(_MmioRange(start, end, device, name or repr(device)))
        self.mmio_start = min(entry.start for entry in self._mmio)
        self.mmio_end = max(entry.end for entry in self._mmio)

    def devices(self) -> List[str]:
        """Names of everything on the bus (ports first, then MMIO)."""
        return [r.name for r in self._ports] + [r.name for r in self._mmio]

    # -- lookup -----------------------------------------------------------------

    def _find_port(self, port: int) -> _PortRange:
        for entry in self._ports:
            if entry.start <= port < entry.end:
                return entry
        raise BusError(f"no device at port {port:#x}")

    def _find_mmio(self, addr: int) -> _MmioRange:
        for entry in self._mmio:
            if entry.start <= addr < entry.end:
                return entry
        raise BusError(f"no device at MMIO address {addr:#x}")

    def mmio_range_for(self, addr: int) -> Optional[Tuple[int, int, str]]:
        """(start, end, name) of the MMIO range covering ``addr``, if any."""
        for entry in self._mmio:
            if entry.start <= addr < entry.end:
                return entry.start, entry.end, entry.name
        return None

    def is_mmio(self, addr: int) -> bool:
        return self.mmio_range_for(addr) is not None

    # -- guest-visible access (subject to interception) --------------------------

    def port_read(self, port: int, size: int = 1) -> int:
        self.port_accesses += 1
        intercepted = (self.intercept is not None
                       and self.intercept.intercepts_port(port))
        if self.access_charger is not None:
            self.access_charger(intercepted)
        if self.access_taps:
            self.access_taps("port-read", port, size, intercepted)
        if intercepted:
            self.intercepted_accesses += 1
            return self.intercept.emulate_port_read(port, size)
        return self.raw_port_read(port, size)

    def port_write(self, port: int, value: int, size: int = 1) -> None:
        self.port_accesses += 1
        intercepted = (self.intercept is not None
                       and self.intercept.intercepts_port(port))
        if self.access_charger is not None:
            self.access_charger(intercepted)
        if self.access_taps:
            self.access_taps("port-write", port, size, intercepted)
        if intercepted:
            self.intercepted_accesses += 1
            self.intercept.emulate_port_write(port, value, size)
            return
        self.raw_port_write(port, value, size)

    def mmio_read(self, addr: int, size: int = 4) -> int:
        self.mmio_accesses += 1
        intercepted = (self.intercept is not None
                       and self.intercept.intercepts_mmio(addr))
        if self.access_charger is not None:
            self.access_charger(intercepted)
        if self.access_taps:
            self.access_taps("mmio-read", addr, size, intercepted)
        if intercepted:
            self.intercepted_accesses += 1
            return self.intercept.emulate_mmio_read(addr, size)
        return self.raw_mmio_read(addr, size)

    def mmio_write(self, addr: int, value: int, size: int = 4) -> None:
        self.mmio_accesses += 1
        intercepted = (self.intercept is not None
                       and self.intercept.intercepts_mmio(addr))
        if self.access_charger is not None:
            self.access_charger(intercepted)
        if self.access_taps:
            self.access_taps("mmio-write", addr, size, intercepted)
        if intercepted:
            self.intercepted_accesses += 1
            self.intercept.emulate_mmio_write(addr, value, size)
            return
        self.raw_mmio_write(addr, value, size)

    # -- raw access (monitor-internal; never intercepted) ------------------------

    def raw_port_read(self, port: int, size: int = 1) -> int:
        entry = self._find_port(port)
        return entry.device.port_read(port - entry.start, size)

    def raw_port_write(self, port: int, value: int, size: int = 1) -> None:
        entry = self._find_port(port)
        entry.device.port_write(port - entry.start, value, size)

    def raw_mmio_read(self, addr: int, size: int = 4) -> int:
        entry = self._find_mmio(addr)
        return entry.device.mmio_read(addr - entry.start, size)

    def raw_mmio_write(self, addr: int, value: int, size: int = 4) -> None:
        entry = self._find_mmio(addr)
        entry.device.mmio_write(addr - entry.start, value, size)
