"""The flight recorder: journal every nondeterministic input.

The simulator itself is deterministic; nondeterminism enters only at
the host boundary — which bytes the debugger sends, when the campaign
injects a fault, and how the host interleaves ``monitor.run`` slices
with ``service_debugger`` calls.  The recorder journals exactly that
boundary:

* **input frames** (replayed verbatim): ``uart-rx`` (host-to-target
  bytes entering the serial link), ``wild-write`` and ``spurious-irq``
  (campaign fault triggers);
* **op frames** (the host interleaving): ``run`` and ``svc``, appended
  when the operation *ends* so journal order is the interleaving — no
  timestamps needed.  Each carries a micro-digest (instructions
  retired, cycle, rolling target-to-host stream digest) that anchors
  bisection;
* **cross-check frames** (``xc-*``, evidence only): IRQ assertion
  instants, RTC reads, device-completion scheduling, debug stops and
  guest death.  Replay must regenerate them in order;
* **rng frames** (provenance): fault-plan RNG draws.  Faults are
  journaled post-decision, so draws are not replayed — they document
  that the plan, not the workload, was random;
* **checkpoint frames**: whole-machine state digests every
  ``checkpoint_every`` completed run slices;
* one **end frame**: final digest, the scenario's invariant verdict,
  and re-evaluable failure checks for the minimizer.

Overhead is counters plus one sha256 update per target byte; a state
digest rehashes only the memory pages written since the previous one
(version 2 journals; see :mod:`repro.replay.digest`).  Both costs are
gated in ``benchmarks/bench_host_budgets.py``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.errors import MonitorError
from repro.obs.taps import TapPoint
from repro.replay.digest import state_digest
from repro.replay.journal import (FRAME_CHECKPOINT, FRAME_END, FRAME_EVENT,
                                  VERSION, Frame, Journal, header_config)

#: Frame kinds that are replayed verbatim (the actual nondeterminism).
INPUT_KINDS = ("uart-rx", "wild-write", "spurious-irq")
#: Host-interleaving operations re-executed by the replayer.
OP_KINDS = ("run", "svc")
#: Evidence the replayer must regenerate, in order.
XC_KINDS = ("xc-irq", "xc-rtc", "xc-sched", "xc-stop", "xc-death")


class FlightRecorder:
    """Attach to a machine + monitor and journal the run.

    Construct it *before* booting the guest so boot-time device
    scheduling is part of the record; the replayer mirrors that order.
    ``version`` is the journal format to write; only a replay (which
    must regenerate an older journal's digests) passes anything but
    the current :data:`~repro.replay.journal.VERSION`.
    """

    def __init__(self, machine, monitor, program=None, plan=None,
                 scenario: str = "", seed: Optional[int] = None,
                 checkpoint_every: int = 4, spool=None,
                 spool_fsync: bool = True, version: int = VERSION) -> None:
        if not hasattr(monitor, "record_taps"):
            raise MonitorError(
                "flight recording needs a monitor with record_taps "
                "(the lightweight VMM)")
        previous = monitor.recorder
        if previous is not None and not previous.finished:
            raise MonitorError("a recorder is already attached")
        self.machine = machine
        self.monitor = monitor
        self.plan = plan
        self.checkpoint_every = checkpoint_every
        self.version = version
        self.header: Dict = {
            "scenario": scenario,
            "seed": seed,
            "monitor": "lvmm",
            "checkpoint_every": checkpoint_every,
            "config": header_config(machine.config),
        }
        if program is not None:
            self.header["guest"] = {"origin": program.origin,
                                    "image": program.image.hex()}
        #: Optional kill-safe spool: every appended frame is also
        #: streamed to disk with flush+fsync at the frame boundary (see
        #: :class:`repro.replay.journal.JournalWriter`), so a recording
        #: killed mid-run leaves a journal recoverable via the loader's
        #: truncated-tail logic.
        self.writer = None
        if spool is not None:
            from repro.replay.journal import JournalWriter
            self.writer = JournalWriter(spool, dict(self.header),
                                        fsync=spool_fsync, version=version)
        self.frames: List[Frame] = []
        self.finished = False
        self._rx_buffer = bytearray()
        # One machine, one target-to-host stream: a recorder taking over
        # from a finished one (a resumed fleet job after its replay)
        # continues its rolling digest, so micro-digests and checkpoints
        # line up with an uninterrupted recording.
        self._t2h = previous._t2h.copy() if previous else hashlib.sha256()
        self._t2h_count = previous._t2h_count if previous else 0
        self._run_depth = 0
        self._pre_stopped = False
        self._runs_completed = 0
        self._journal_bytes = 0
        self.counters = {"input_frames": 0, "op_frames": 0,
                         "xc_frames": 0, "rng_frames": 0,
                         "checkpoints": 0, "uart_rx_bytes": 0}
        #: Multicast observation point notified as ``taps(frame)`` for
        #: every journal frame appended.  The tracer subscribes here;
        #: observers must only observe.
        self.frame_taps = TapPoint()
        self._install_taps()
        monitor.recorder = self

    # -- tap plumbing --------------------------------------------------------

    def _taps(self) -> List:
        """(tap point, bound callback) for every boundary journaled."""
        machine = self.machine
        taps = [(machine.serial_link.taps, self._on_link_byte),
                (machine.pic.raise_taps, self._on_irq_raise),
                (machine.rtc.read_taps, self._on_rtc_read),
                (machine.queue.schedule_taps, self._on_schedule),
                (self.monitor.record_taps, self._on_monitor_event)]
        if self.plan is not None:
            taps.append((self.plan.draw_taps, self._on_rng_draw))
        return taps

    def _install_taps(self) -> None:
        for tap, callback in self._taps():
            tap.subscribe(callback)

    def detach(self) -> None:
        """Remove every tap (idempotent)."""
        for tap, callback in self._taps():
            tap.unsubscribe(callback)

    # -- frame assembly ------------------------------------------------------

    def _append(self, frame: Frame) -> None:
        if self.finished:
            return
        if frame.data.get("kind") != "uart-rx":
            self._flush_rx()
        self.frames.append(frame)
        self._journal_bytes += len(frame.encode(self.version))
        if self.writer is not None:
            self.writer.append(frame)
        if self.frame_taps:
            self.frame_taps(frame)

    def _flush_rx(self) -> None:
        if not self._rx_buffer:
            return
        data = bytes(self._rx_buffer)
        self._rx_buffer.clear()
        frame = Frame(FRAME_EVENT, {"kind": "uart-rx",
                                    "data": data.hex()})
        self.counters["input_frames"] += 1
        self.counters["uart_rx_bytes"] += len(data)
        self._append(frame)

    def _t2h_evidence(self) -> List:
        return [self._t2h_count, self._t2h.hexdigest()[:16]]

    def _micro(self) -> Dict:
        cpu = self.machine.cpu
        return {"instret": cpu.instret, "cycle": cpu.cycle_count,
                "t2h": self._t2h_evidence()}

    # -- taps ----------------------------------------------------------------

    def _on_link_byte(self, direction: str, byte: int) -> None:
        if direction == "h2t":
            self._rx_buffer.append(byte)
        else:
            self._t2h.update(bytes([byte]))
            self._t2h_count += 1

    def _on_irq_raise(self, line: int) -> None:
        self.counters["xc_frames"] += 1
        self._append(Frame(FRAME_EVENT, {
            "kind": "xc-irq", "line": line,
            "cycle": self.machine.cpu.cycle_count}))

    def _on_rtc_read(self, register: int, value: int) -> None:
        self.counters["xc_frames"] += 1
        self._append(Frame(FRAME_EVENT, {
            "kind": "xc-rtc", "reg": register, "value": value,
            "cycle": self.machine.cpu.cycle_count}))

    def _on_schedule(self, time: int, name: str) -> None:
        self.counters["xc_frames"] += 1
        self._append(Frame(FRAME_EVENT, {
            "kind": "xc-sched", "name": name, "at": time,
            "cycle": self.machine.cpu.cycle_count}))

    def _on_rng_draw(self, purpose: str, value) -> None:
        self.counters["rng_frames"] += 1
        self._append(Frame(FRAME_EVENT, {
            "kind": "rng", "purpose": purpose, "value": repr(value)}))

    def _on_monitor_event(self, kind: str, payload: Dict) -> None:
        if kind == "run-begin":
            self._flush_rx()
            if self._run_depth == 0:
                self._pre_stopped = payload["pre_stopped"]
            self._run_depth += 1
            return
        if kind == "run-end":
            self._run_depth -= 1
            if self._run_depth > 0:
                return  # nested run (shouldn't happen, but be safe)
            data = {"kind": "run", "max": payload["max"],
                    "executed": payload["executed"],
                    "pre_stopped": self._pre_stopped}
            data.update(self._micro())
            self.counters["op_frames"] += 1
            self._append(Frame(FRAME_EVENT, data))
            self._runs_completed += 1
            if self.checkpoint_every \
                    and self._runs_completed % self.checkpoint_every == 0:
                self.checkpoint()
            return
        if kind == "svc":
            if self._run_depth > 0:
                return  # internal service (inside run): replay regenerates
            data = {"kind": "svc"}
            data.update(self._micro())
            self.counters["op_frames"] += 1
            self._append(Frame(FRAME_EVENT, data))
            return
        if kind in ("wild-write", "spurious-irq"):
            data = {"kind": kind}
            data.update(payload)
            self.counters["input_frames"] += 1
            self._append(Frame(FRAME_EVENT, data))
            return
        if kind in ("stop", "death"):
            data = {"kind": "xc-" + kind,
                    "cycle": self.machine.cpu.cycle_count}
            data.update(payload)
            self.counters["xc_frames"] += 1
            self._append(Frame(FRAME_EVENT, data))
            return

    # -- checkpoints and completion ------------------------------------------

    def checkpoint(self) -> str:
        """Append a whole-machine digest frame; returns the digest."""
        self._flush_rx()
        digest = state_digest(self.machine, self.monitor,
                              extra={"t2h": self._t2h_evidence()},
                              version=self.version)
        data = {"kind": "checkpoint", "digest": digest}
        data.update(self._micro())
        self.counters["checkpoints"] += 1
        self._append(Frame(FRAME_CHECKPOINT, data))
        return digest

    def finish(self, violations: Optional[List[str]] = None,
               checks: Optional[List[Dict]] = None) -> Journal:
        """Seal the journal with an end frame and detach all taps.

        ``checks`` are re-evaluable failure predicates for the
        replayer/minimizer (see :func:`repro.replay.evaluate_checks`).
        When omitted, a ``guest-dead`` check is derived automatically if
        the guest died.
        """
        if self.finished:
            raise MonitorError("recorder already finished")
        self._flush_rx()
        if checks is None:
            checks = []
            if self.monitor.guest_dead:
                checks.append({"check": "guest-dead"})
        digest = state_digest(self.machine, self.monitor,
                              extra={"t2h": self._t2h_evidence()},
                              version=self.version)
        data = {"kind": "end", "violations": list(violations or []),
                "checks": checks, "digest": digest}
        data.update(self._micro())
        self._append(Frame(FRAME_END, data))
        self.finished = True
        if self.writer is not None:
            self.writer.close()
        self.detach()
        self.journal = Journal(header=dict(self.header),
                               frames=list(self.frames),
                               version=self.version)
        return self.journal

    # -- accounting ----------------------------------------------------------

    def stats(self) -> Dict:
        """Recorder overhead counters (``repro.perf`` shape)."""
        stats = dict(self.counters)
        stats["frames"] = len(self.frames)
        stats["journal_bytes"] = self._journal_bytes
        stats["t2h_bytes"] = self._t2h_count
        stats["checkpoint_every"] = self.checkpoint_every
        stats["finished"] = self.finished
        if self.writer is not None:
            stats["spooled_frames"] = self.writer.frames_written
            stats["spooled_bytes"] = self.writer.bytes_written
        return stats
