"""Instrumentation glue: taps in, trace-bus events + metrics out.

The :class:`Tracer` subscribes to the multicast tap points the rest of
the tree already exposes (:mod:`repro.obs.taps`) and converts what
they observe into :class:`repro.obs.bus.TraceBus` events and
:class:`repro.obs.metrics` counters.  It coexists with the flight
recorder on the same hooks — the regression contract is that journals
are byte-identical with and without a tracer attached, whichever of
the two subscribes first.

Sources, by category:

===========  ============================================================
category     source
===========  ============================================================
``trap``     the monitor's event ring (``monitor.trace.taps``),
             forwarded as recorded: trap/irq/reflect/vmcall are
             complete spans costed by the monitor's cost model
``irq``      ``PicPair.raise_taps`` (raise) and
             ``InterruptDispatcher.deliver_taps`` (deliver)
``device``   ``IoBus.access_taps`` (guest port/MMIO accesses),
             ``SerialLink.taps`` (debug-link bytes),
             ``Rtc.read_taps``, ``EventQueue.schedule_taps``
``rsp``      ``DebugStub.packet_taps`` (packet in/out)
``fault``    ``FaultPlan.fire_taps`` (fired faults; RNG draws are
             counted but not traced — too hot)
``watchdog`` ``MonitorWatchdog.transition_taps``
``replay``   ``FlightRecorder.frame_taps`` (journal frame kinds)
``monitor``  run-slice begin/end spans from ``monitor.record_taps``
===========  ============================================================

Timestamps are ``max(cpu.cycle_count, queue.now)`` — the two clocks
are synced whenever the guest actually executes, and the max covers
perf-layer scenarios where only the event queue advances.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs import bus as _bus
from repro.obs.bus import TraceBus
from repro.obs.metrics import Counter, MetricsRegistry, global_registry


class Tracer:
    """Subscribe to every available tap; emit trace events + metrics."""

    def __init__(self, bus: Optional[TraceBus] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.bus = bus if bus is not None else TraceBus()
        self.registry = registry if registry is not None \
            else global_registry()
        # Ring wraparound shows up as obs.bus.dropped (lazily created
        # on the first drop, so drop-free runs stay golden-stable).
        self.bus.bind_metrics(self.registry)
        #: Each counter name's Counter, looked up in the registry once:
        #: get-or-create returns the same object for a name until the
        #: registry is cleared.
        self._counters: Dict[str, Counter] = {}
        self._subscriptions: List[Tuple[object, object]] = []
        self._machine = None
        self._dispatcher = None
        self._stack = None
        self.attached = False

    # -- wiring --------------------------------------------------------------

    def attach(self, machine=None, monitor=None, stub=None, plan=None,
               recorder=None, dispatcher=None, stack=None) -> "Tracer":
        """Subscribe to whatever tap points the given objects expose.

        ``monitor`` implies its machine and stub; every argument is
        optional so perf-layer scenarios (no monitor) trace too.  With
        a perf ``stack``, intercepted bus accesses additionally become
        ``trap`` spans charged at the stack's world-switch cost — the
        perf layer's stand-in for the monitor event ring.  Enables
        the bus.
        """
        if self.attached:
            raise RuntimeError("tracer already attached")
        if monitor is not None:
            machine = machine if machine is not None else monitor.machine
            stub = stub if stub is not None else monitor.stub
        self._machine = machine
        self._stack = stack
        if machine is not None:
            self._sub(machine.serial_link.taps, self._on_link_byte)
            self._sub(machine.pic.raise_taps, self._on_irq_raise)
            self._sub(machine.rtc.read_taps, self._on_rtc_read)
            self._sub(machine.queue.schedule_taps, self._on_schedule)
            self._sub(machine.bus.access_taps, self._on_bus_access)
        if monitor is not None:
            self._sub(monitor.trace.taps, self._on_monitor_trace)
            self._sub(monitor.record_taps, self._on_monitor_record)
            if monitor.watchdog is not None:
                self._sub(monitor.watchdog.transition_taps,
                          self._on_watchdog)
        if stub is not None:
            self._sub(stub.packet_taps, self._on_rsp_packet)
        if plan is not None:
            self._sub(plan.fire_taps, self._on_fault_fire)
            self._sub(plan.draw_taps, self._on_fault_draw)
        if recorder is not None:
            self._sub(recorder.frame_taps, self._on_replay_frame)
        if dispatcher is not None:
            self._dispatcher = dispatcher
            self._sub(dispatcher.deliver_taps, self._on_irq_deliver)
        self.bus.enabled = True
        self.attached = True
        return self

    def detach(self) -> None:
        """Unsubscribe everywhere and disable the bus (idempotent)."""
        for tap, callback in self._subscriptions:
            tap.unsubscribe(callback)
        self._subscriptions.clear()
        self.bus.enabled = False
        self.attached = False

    def _sub(self, tap, callback) -> None:
        tap.subscribe(callback)
        self._subscriptions.append((tap, callback))

    def add_stub(self, stub) -> None:
        """Trace a stub created after :meth:`attach` (perf consoles)."""
        self._sub(stub.packet_taps, self._on_rsp_packet)

    def add_watchdog(self, watchdog) -> None:
        """Trace a watchdog created after :meth:`attach`."""
        self._sub(watchdog.transition_taps, self._on_watchdog)

    # -- clocks --------------------------------------------------------------

    def _now(self) -> Tuple[int, int]:
        """(cycle, instret) from whichever clock has advanced furthest."""
        machine = self._machine
        if machine is None:
            return 0, 0
        cycle = machine.cpu.cycle_count
        queue_now = machine.queue.now
        if queue_now > cycle:
            cycle = queue_now
        return cycle, machine.cpu.instret

    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.registry.counter(name)
        counter.inc()

    # -- tap callbacks -------------------------------------------------------

    def _on_link_byte(self, direction: str, byte: int) -> None:
        cycle, instret = self._now()
        self.bus.instant(_bus.CAT_DEVICE, f"uart-{direction}", cycle,
                         instret, args={"byte": byte})
        self._count(f"trace.device.uart_{direction}_bytes")

    def _on_irq_raise(self, line: int) -> None:
        cycle, instret = self._now()
        self.bus.instant(_bus.CAT_IRQ, "irq-raise", cycle, instret,
                         args={"line": line})
        self._count("trace.irq.raised")

    def _on_irq_deliver(self, line: int, vector: int) -> None:
        cycle, instret = self._now()
        cost = 0
        if self._dispatcher is not None:
            cost = self._dispatcher.stack.cost.interrupt_deliver_cycles
        self.bus.complete(_bus.CAT_IRQ, "irq-deliver", cycle, cost,
                          instret, args={"line": line,
                                         "vector": vector})
        self._count("trace.irq.delivered")

    def _on_rtc_read(self, register: int, value: int) -> None:
        cycle, instret = self._now()
        self.bus.instant(_bus.CAT_DEVICE, "rtc-read", cycle, instret,
                         args={"reg": register, "value": value})
        self._count("trace.device.rtc_reads")

    def _on_schedule(self, time: int, name: str) -> None:
        cycle, instret = self._now()
        self.bus.instant(_bus.CAT_DEVICE, "sched", cycle, instret,
                         args={"at": time, "event": name})
        self._count("trace.device.scheduled")

    def _on_bus_access(self, kind: str, addr: int, size: int,
                       intercepted: bool) -> None:
        cycle, instret = self._now()
        self.bus.instant(_bus.CAT_DEVICE, kind, cycle, instret,
                         args={"addr": addr, "size": size,
                               "intercepted": int(intercepted)})
        self._count(f"trace.device.{kind.replace('-', '_')}")
        if intercepted:
            self._count("trace.device.intercepted")
            if self._stack is not None:
                # Perf-layer stand-in for the monitor event ring: an
                # intercepted access is a trap charged one world switch.
                self.bus.complete(
                    _bus.CAT_TRAP, f"trap-{kind}", cycle,
                    self._stack.cost.world_switch_cycles, instret,
                    args={"addr": addr})
                self._count("trace.monitor.trap")

    def _on_monitor_trace(self, record) -> None:
        """One monitor event-ring record (trap/exc/irq/reflect/...)."""
        self.bus.forward(record)
        self._count(f"trace.monitor.{record.name}")

    def _on_monitor_record(self, kind: str, payload: dict) -> None:
        """Nondeterminism-boundary events: run slices become spans."""
        cycle, instret = self._now()
        if kind == "run-begin":
            self.bus.begin(_bus.CAT_MONITOR, "run", cycle, instret,
                           args={"max": payload.get("max", 0)})
        elif kind == "run-end":
            self.bus.end("run", cycle, instret,
                         args={"executed": payload.get("executed", 0)})
            self._count("trace.monitor.run_slices")
        else:
            self.bus.instant(_bus.CAT_MONITOR, kind, cycle, instret,
                             args=dict(payload))
            self._count(f"trace.monitor.{kind.replace('-', '_')}")

    def _on_rsp_packet(self, direction: str, payload: bytes) -> None:
        cycle, instret = self._now()
        preview = payload[:32].decode("latin-1")
        self.bus.instant(_bus.CAT_RSP, f"packet-{direction}", cycle,
                         instret, args={"len": len(payload),
                                        "data": preview})
        self._count(f"trace.rsp.packets_{direction}")

    def _on_fault_fire(self, event) -> None:
        cycle, instret = self._now()
        self.bus.instant(_bus.CAT_FAULT, "fault-fire", cycle, instret,
                         args={"site": event.site, "kind": event.kind,
                               "op": event.opportunity})
        self._count("trace.fault.fired")

    def _on_fault_draw(self, purpose: str, _value) -> None:
        self._count(f"trace.fault.draws_{purpose}")

    def _on_watchdog(self, cycle: int, src: str, dst: str,
                     reason: str) -> None:
        instret = self._machine.cpu.instret \
            if self._machine is not None else 0
        self.bus.instant(_bus.CAT_WATCHDOG, "degrade", cycle, instret,
                         args={"from": src, "to": dst,
                               "reason": reason})
        self._count("trace.watchdog.degradations")

    def _on_replay_frame(self, frame) -> None:
        cycle, instret = self._now()
        kind = frame.data.get("kind", "?")
        self.bus.instant(_bus.CAT_REPLAY, f"frame-{kind}", cycle,
                         instret)
        self._count("trace.replay.frames")
