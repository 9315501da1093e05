"""The traced run: spans around each layer's entry points.

Spans are recorded from the benchmark's own files by wrapping the
public entry points of each layer (plus the trap, interrupt and pump
hooks the layer table names) at class or module level for the length
of a traced phase.  Wrapping happens before the workload builds its
objects, so callbacks bound at construction (the RSP client's pump, the
CPU's trap hooks) bind the wrapper.

Each span is ``(op, name, start, end, parent)``; all spans of one op
share the op id, and every op has a root span named ``op``.  Spans stay
in memory until the run ends; a layer's self time is its spans'
durations minus the time their child spans cover.  Span times are
wall-clock (``time.perf_counter``): a CPU clock costs several times
more per call, and the supervisor side of a fleet job mostly waits.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict, deque
from typing import Dict, List, Optional, Sequence, Tuple

#: The layer table: (module, attribute path, span name).  A span name's
#: first dotted components name the layer it belongs to.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # rsp + core.session: the host half of the debugger path
    ("repro.rsp.client", "RspClient.exchange", "rsp.client"),
    ("repro.rsp.client", "RspClient.wait_for_stop", "rsp.client"),
    ("repro.rsp.client", "RspClient.send_async", "rsp.client"),
    ("repro.rsp.stub", "DebugStub.feed", "rsp.stub"),
    ("repro.rsp.packets", "PacketDecoder.feed", "rsp.packets"),
    ("repro.rsp.packets", "PacketDecoder.next_packet", "rsp.packets"),
    # The codec functions are imported by name, so wrap each importer.
    ("repro.rsp.client", "frame", "rsp.packets"),
    ("repro.rsp.client", "hex_decode", "rsp.packets"),
    ("repro.rsp.stub", "frame", "rsp.packets"),
    ("repro.rsp.stub", "hex_encode", "rsp.packets"),
    ("repro.rsp.stub", "hex_decode", "rsp.packets"),
    ("repro.core.session", "DebugSession._pump", "core.session"),
    # hw.uart + hw.bus: the serial link and port dispatch
    ("repro.hw.uart", "Uart16550.port_write", "hw.uart.tx"),
    ("repro.hw.uart", "Uart16550.port_read", "hw.uart.rx"),
    ("repro.hw.uart", "HostSerialPort.send", "hw.uart.host"),
    ("repro.hw.uart", "HostSerialPort.recv", "hw.uart.host"),
    ("repro.hw.bus", "IoBus.port_read", "hw.bus"),
    ("repro.hw.bus", "IoBus.port_write", "hw.bus"),
    ("repro.hw.bus", "IoBus.raw_port_read", "hw.bus"),
    ("repro.hw.bus", "IoBus.raw_port_write", "hw.bus"),
    # vmm: run loop, debugger service, qRcmd, traps and reflection
    ("repro.vmm.monitor", "LightweightVmm.run", "vmm.run"),
    ("repro.vmm.monitor", "LightweightVmm.service_debugger",
     "vmm.service_debugger"),
    ("repro.vmm.monitor", "LightweightVmm.monitor_command",
     "vmm.monitor_command"),
    ("repro.vmm.monitor", "LightweightVmm._on_exception", "vmm.trap"),
    ("repro.vmm.monitor", "LightweightVmm._on_interrupt", "vmm.irq"),
    # hw.cpu + interp: one dispatch step (an instruction or a block)
    ("repro.hw.cpu", "Cpu.step", "hw.cpu"),
    ("repro.interp.translate", "SuperblockEngine._compile",
     "interp.compile"),
    # sim: the discrete-event queue
    ("repro.sim.events", "EventQueue.step", "sim.events"),
    ("repro.hw.machine", "Machine.sync_events", "sim.sync"),
    # perf + guest.os + storage/network devices
    ("repro.perf.stacks", "InterruptDispatcher.dispatch_pending",
     "perf.dispatch"),
    ("repro.guest.os", "HiTactix.start", "guest.os"),
    ("repro.guest.os", "HiTactix.on_tick", "guest.os"),
    ("repro.hw.scsi", "ScsiHba.port_write", "hw.scsi"),
    ("repro.hw.scsi", "ScsiHba.port_read", "hw.scsi"),
    ("repro.hw.nic", "Nic.mmio_write", "hw.nic"),
    ("repro.hw.nic", "Nic.mmio_read", "hw.nic"),
    # replay: the recorder and its state digests
    ("repro.replay.recorder", "state_digest", "replay.digest"),
    ("repro.replay.recorder", "FlightRecorder.checkpoint",
     "replay.recorder"),
    # fleet + obs.metrics: the supervisor side and the worker's job
    ("repro.fleet.supervisor", "Fleet.submit", "fleet.submit"),
    ("repro.fleet.supervisor", "Fleet.poll", "fleet.poll"),
    ("repro.fleet.supervisor", "Fleet._send_job", "fleet.dispatch"),
    ("workloads", "ExecSlicesJob._wait", "fleet.wait"),
    ("repro.fleet.worker", "ExecSlices.__init__", "fleet.worker"),
    ("repro.fleet.worker", "ExecSlices.step", "fleet.worker"),
    ("repro.fleet.worker", "ExecSlices.result", "fleet.worker"),
    ("repro.obs.metrics", "MetricsRegistry.snapshot", "obs.metrics"),
    # hw.machine: building the target
    ("repro.hw.machine", "Machine.__init__", "hw.machine.build"),
)

ROOT = "op"


class Tracer:
    """Span recorder with a bounded in-memory span list."""

    def __init__(self, span_budget: int = 400_000) -> None:
        self.spans: List[list] = []
        self.span_budget = span_budget
        #: Calls per span name inside measured ops (op id >= 0).
        self.calls: Counter = Counter()
        self.op_id = -1
        self.recording = False
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: The latest machines built while tracing (fig31 builds one per
        #: op); bounded, as each holds its guest RAM.
        self.machines: deque = deque(maxlen=8)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        calls = self.calls
        spans = self.spans
        stack = self._stack

        if name == "hw.machine.build":
            @functools.wraps(fn)
            def build(machine, *args, **kwargs):
                result = traced(machine, *args, **kwargs)
                tracer.machines.append(machine)
                return result
        else:
            build = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if tracer.op_id >= 0:
                calls[name] += 1
            record = [tracer.op_id, name, clock(), 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return build or traced

    # -- ops ---------------------------------------------------------------

    @property
    def full(self) -> bool:
        return len(self.spans) >= self.span_budget

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.recording = True
        self._stack.append(len(self.spans))
        self.spans.append([op_id, ROOT, time.perf_counter(), 0.0, -1])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][3] = time.perf_counter()
        self.recording = False


def self_times(spans: Sequence[Sequence]) -> Dict[int, Dict[str, float]]:
    """Per op, per span name: summed self time in seconds.

    A span's self time is its duration minus the durations of its
    direct children.  Children nest strictly inside their parent on one
    thread, so the children of one span never overlap."""
    child_time = defaultdict(float)
    for span in spans:
        parent = span[4]
        if parent >= 0:
            child_time[parent] += span[3] - span[2]
    totals: Dict[int, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for index, span in enumerate(spans):
        totals[span[0]][span[1]] += (span[3] - span[2]) - child_time[index]
    return totals


def op_durations(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Duration of each op's root span."""
    return {span[0]: span[3] - span[2] for span in spans
            if span[1] == ROOT and span[4] < 0}


def layer_self_ms(spans: Sequence[Sequence], factors: Dict[int, float],
                  ops: Optional[Sequence[int]] = None) -> Dict[str, float]:
    """Mean self time per op of every span name, in (scaled) ms.

    ``factors`` maps op id to that op's probe scale (1.0 when raw)."""
    totals = self_times(spans)
    ops = list(ops if ops is not None else totals)
    per_name: Dict[str, float] = defaultdict(float)
    for op in ops:
        factor = factors.get(op, 1.0)
        for name, seconds in totals.get(op, {}).items():
            per_name[name] += seconds * factor
    return {name: total * 1e3 / len(ops) for name, total in per_name.items()} \
        if ops else {}
