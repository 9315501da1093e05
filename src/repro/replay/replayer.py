"""Re-drive a fresh machine from a journal and cross-check it.

The walker applies frames in order: ``uart-rx`` bytes are pushed into
the serial link, ``run``/``svc`` frames re-execute the recorded host
interleaving, ``wild-write``/``spurious-irq`` frames re-fire the
campaign triggers.  Because the simulator is deterministic, everything
else must *re-happen* — and the journal carries the evidence to prove
it did:

* ``xc-*`` frames are matched against the events the replay actually
  generates, via an expectation queue: the walker queues the evidence
  frames it passes, taps consume them in order, and a tap with no
  queued expectation looks ahead past the current frame (evidence
  recorded during input processing lands *after* its input frame).
  Any mismatch, leftover expectation, or unexpected event is the first
  divergence — pinned to a frame index, instruction count and cycle;
* ``run``/``svc`` frames carry micro-digests (instructions retired,
  cycle, rolling target-to-host stream digest) checked when the
  operation completes;
* ``checkpoint``/``end`` frames carry whole-machine state digests.

:func:`bisect_divergence` runs O(log n) relaxed prefix replays against
the recorded micro-digests to bracket a divergence between the last
good and first bad evidence frame, then a bounded strict replay names
the exact event.  :func:`evaluate_checks` re-evaluates a journal's
failure predicates against the final replayed state — the contract the
minimizer shrinks against.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import JournalError, TripleFault
from repro.hw.machine import Machine, MachineConfig
from repro.replay.digest import state_digest
from repro.replay.journal import Journal
from repro.replay.recorder import OP_KINDS, XC_KINDS

#: Frame kinds that carry checkable evidence (bisection probe points).
EVIDENCE_KINDS = ("run", "svc", "checkpoint", "end")


@dataclass
class Divergence:
    """Where — and how — replay split from the recording."""

    frame_index: int
    kind: str                  # "event", "micro", "digest", "missing"
    message: str
    expected: Optional[Dict] = None
    actual: Optional[Dict] = None
    instret: int = 0
    cycle: int = 0

    def to_dict(self) -> Dict:
        return {"frame_index": self.frame_index, "kind": self.kind,
                "message": self.message, "expected": self.expected,
                "actual": self.actual, "instret": self.instret,
                "cycle": self.cycle}


@dataclass
class ReplayResult:
    """Outcome of one replay pass."""

    ok: bool
    divergence: Optional[Divergence] = None
    frames_applied: int = 0
    final_digest: str = ""
    t2h: List = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    machine: Optional[Machine] = None
    monitor: Optional[object] = None

    @property
    def reproduced(self) -> bool:
        """Every recorded failure predicate re-evaluated true."""
        return bool(self.checks) and all(self.checks.values())

    def stats(self) -> Dict:
        return {
            "ok": self.ok,
            "frames_applied": self.frames_applied,
            "diverged": self.divergence is not None,
            "divergence_frame": (self.divergence.frame_index
                                 if self.divergence else None),
            "checks": dict(self.checks),
            "final_digest": self.final_digest,
        }


def evaluate_checks(checks: List[Dict], machine, monitor) -> Dict[str, bool]:
    """Re-evaluate recorded failure predicates against replayed state.

    Known checks: ``guest-dead`` (the guest died) and
    ``monitor-corrupt`` (the protected region hash differs from the
    recorded ``baseline``).  Unknown checks evaluate False so a
    minimizer can never "succeed" against a predicate it does not
    understand.
    """
    results: Dict[str, bool] = {}
    for check in checks:
        name = check.get("check", "?")
        if name == "guest-dead":
            results[name] = bool(monitor.guest_dead)
        elif name == "monitor-corrupt":
            results[name] = (monitor.monitor_region_hash()
                             != check.get("baseline"))
        else:
            results[name] = False
    return results


class Replayer:
    """One replay pass over a journal.

    ``strict=True`` verifies every piece of evidence and stops at the
    first divergence.  ``strict=False`` (the minimizer's mode) applies
    inputs and operations only.  ``probe_frame`` — relaxed application
    up to that frame, then verify just its evidence (bisection's
    primitive).  ``stop_after`` bounds the walk.
    """

    def __init__(self, journal: Journal, strict: bool = True,
                 probe_frame: Optional[int] = None,
                 stop_after: Optional[int] = None) -> None:
        self.journal = journal
        self.strict = strict
        self.probe_frame = probe_frame
        self.stop_after = stop_after
        self.divergence: Optional[Divergence] = None
        self._expected = deque()
        self._consumed = set()
        self._cursor = 0
        self._t2h = hashlib.sha256()
        self._t2h_count = 0
        self.frames_applied = 0
        self._build_machine()

    # -- machine construction ------------------------------------------------

    def _build_machine(self) -> None:
        from repro.vmm.monitor import LightweightVmm
        header = self.journal.header
        config = header.get("config", {})
        if header.get("monitor") != "lvmm":
            raise JournalError(
                f"cannot replay monitor {header.get('monitor')!r}")
        guest = header.get("guest")
        if not guest:
            raise JournalError("journal has no guest image to replay")
        machine_config = MachineConfig(
            memory_size=config["memory_size"],
            cpu_hz=config["cpu_hz"],
            disks=[tuple(entry) for entry in config["disks"]],
            disk_rate_bytes_per_sec=config["disk_rate_bytes_per_sec"],
            with_nic=config["with_nic"],
            nic_mmio_base=config["nic_mmio_base"])
        self.machine = Machine(machine_config)
        self.monitor = LightweightVmm(self.machine)
        self.monitor.install()
        self._install_taps()
        # Mirror DebugSession.load_and_boot: image, boot, attach stopped.
        image = bytes.fromhex(guest["image"])
        self.machine.memory.write(guest["origin"], image)
        self.monitor.boot_guest(guest["origin"])
        self.monitor.stopped = True

    def _taps(self) -> List:
        """(tap point, bound callback) for every boundary observed.

        The t2h stream digest is maintained in every mode (evidence and
        final digests depend on it); event cross-checking only in
        strict mode.
        """
        machine = self.machine
        taps = [(machine.serial_link.taps, self._on_link_byte),
                (self.monitor.record_taps, self._on_monitor_event)]
        if self.strict:
            taps += [(machine.pic.raise_taps, self._on_irq_raise),
                     (machine.rtc.read_taps, self._on_rtc_read),
                     (machine.queue.schedule_taps, self._on_schedule)]
        return taps

    def _install_taps(self) -> None:
        for tap, callback in self._taps():
            tap.subscribe(callback)

    def detach(self) -> None:
        """Remove every replay tap from the rebuilt machine (idempotent).

        After a relaxed replay the machine/monitor pair is a faithful
        reconstruction of the recorded state; detaching leaves it
        unobserved so a new :class:`FlightRecorder` (or any other
        observer) can take over — the fleet's journal-based worker
        recovery resumes sessions this way.
        """
        for tap, callback in self._taps():
            tap.unsubscribe(callback)

    # -- expectation matching ------------------------------------------------

    def _observe(self, payload: Dict) -> None:
        """An event happened during replay; match it against evidence."""
        if not self.strict or self.divergence is not None:
            return
        if not self._expected:
            self._lookahead()
        if not self._expected:
            self._diverge("event", self._cursor,
                          "replay generated an event the recording "
                          f"does not contain: {payload}",
                          expected=None, actual=payload)
            return
        index, frame = self._expected.popleft()
        if frame.data != payload:
            self._diverge("event", index,
                          "replayed event differs from recorded evidence",
                          expected=frame.data, actual=payload)

    def _lookahead(self) -> None:
        """Queue evidence recorded *after* the frame being applied.

        Evidence generated while an input frame is processed (IRQ raise
        from delivered UART bytes, death from a wild write) lands after
        that input frame in the journal; pull the run of xc/rng frames
        that follows the cursor.
        """
        index = self._cursor + 1
        frames = self.journal.frames
        while index < len(frames) and index not in self._consumed:
            kind = frames[index].kind
            if kind in XC_KINDS:
                self._expected.append((index, frames[index]))
                self._consumed.add(index)
            elif kind != "rng":
                break
            index += 1

    def _diverge(self, kind: str, frame_index: int, message: str,
                 expected=None, actual=None) -> None:
        if self.divergence is not None:
            return
        cpu = self.machine.cpu
        self.divergence = Divergence(
            frame_index=frame_index, kind=kind, message=message,
            expected=expected, actual=actual,
            instret=cpu.instret, cycle=cpu.cycle_count)

    # -- replay-side taps ----------------------------------------------------

    def _on_link_byte(self, direction: str, byte: int) -> None:
        if direction == "t2h":
            self._t2h.update(bytes([byte]))
            self._t2h_count += 1

    def _on_irq_raise(self, line: int) -> None:
        self._observe({"kind": "xc-irq", "line": line,
                       "cycle": self.machine.cpu.cycle_count})

    def _on_rtc_read(self, register: int, value: int) -> None:
        self._observe({"kind": "xc-rtc", "reg": register, "value": value,
                       "cycle": self.machine.cpu.cycle_count})

    def _on_schedule(self, time: int, name: str) -> None:
        self._observe({"kind": "xc-sched", "name": name, "at": time,
                       "cycle": self.machine.cpu.cycle_count})

    def _on_monitor_event(self, kind: str, payload: Dict) -> None:
        if kind in ("stop", "death"):
            data = {"kind": "xc-" + kind,
                    "cycle": self.machine.cpu.cycle_count}
            data.update(payload)
            self._observe(data)
        # run-begin/run-end/svc/wild-write/spurious-irq are driven by
        # the walker itself; nothing to match.

    # -- evidence checks -----------------------------------------------------

    def _t2h_evidence(self) -> List:
        return [self._t2h_count, self._t2h.hexdigest()[:16]]

    def _check_micro(self, index: int, frame,
                     executed: Optional[int] = None) -> bool:
        cpu = self.machine.cpu
        actual = {"instret": cpu.instret, "cycle": cpu.cycle_count,
                  "t2h": self._t2h_evidence()}
        expected = {"instret": frame.data["instret"],
                    "cycle": frame.data["cycle"],
                    "t2h": frame.data["t2h"]}
        if executed is not None:
            actual["executed"] = executed
            expected["executed"] = frame.data["executed"]
        if actual != expected:
            self._diverge("micro", index,
                          f"{frame.kind} micro-digest mismatch",
                          expected=expected, actual=actual)
            return False
        return True

    def _check_digest(self, index: int, frame) -> bool:
        digest = state_digest(self.machine, self.monitor,
                              extra={"t2h": self._t2h_evidence()})
        if digest != frame.data["digest"]:
            self._diverge("digest", index,
                          f"{frame.kind} state digest mismatch",
                          expected={"digest": frame.data["digest"]},
                          actual={"digest": digest})
            return False
        return True

    # -- the walk ------------------------------------------------------------

    def run(self) -> ReplayResult:
        frames = self.journal.frames
        checks: Dict[str, bool] = {}
        violations: List[str] = []
        total = len(frames)
        for index, frame in enumerate(frames):
            if self.stop_after is not None and index > self.stop_after:
                break
            if self.strict and self.divergence is not None:
                break
            self.monitor.replay_status = {
                "frame": index, "total": total, "mode": self._mode(),
                "divergence": (self.divergence.to_dict()
                               if self.divergence else None)}
            if index in self._consumed:
                continue
            kind = frame.kind
            if kind == "rng":
                continue
            if kind in XC_KINDS:
                if self.strict:
                    self._expected.append((index, frame))
                    self._consumed.add(index)
                continue
            self._cursor = index
            probe_here = (self.probe_frame is not None
                          and index == self.probe_frame)
            verify = self.strict or probe_here
            if kind == "uart-rx":
                link = self.machine.serial_link
                link.b_to_a.extend(bytes.fromhex(frame.data["data"]))
                link._kick()
            elif kind == "svc":
                self.monitor.service_debugger()
                if verify:
                    self._check_micro(index, frame)
            elif kind == "run":
                self.monitor.stopped = frame.data["pre_stopped"]
                try:
                    executed = self.monitor.run(frame.data["max"])
                except TripleFault as fault:
                    self.monitor._guest_died(str(fault))
                    executed = 0
                if verify:
                    self._check_micro(index, frame, executed=executed)
            elif kind == "wild-write":
                self.monitor.inject_wild_write(
                    frame.data["addr"], bytes.fromhex(frame.data["data"]))
            elif kind == "spurious-irq":
                self.monitor.inject_spurious_interrupt(frame.data["line"])
            elif kind == "checkpoint":
                if verify:
                    self._check_digest(index, frame)
            elif kind == "end":
                if verify:
                    self._check_digest(index, frame)
                checks = evaluate_checks(frame.data.get("checks", []),
                                         self.machine, self.monitor)
                violations = list(frame.data.get("violations", []))
            else:
                self._diverge("event", index,
                              f"journal contains unknown frame kind "
                              f"{kind!r}")
            self.frames_applied += 1
            if self.strict and kind in OP_KINDS and self._expected \
                    and self.divergence is None:
                missing_index, missing = self._expected[0]
                self._diverge("missing", missing_index,
                              "recorded event did not occur during "
                              "replay", expected=missing.data, actual=None)
            if probe_here:
                break
        if self.strict and self._expected and self.divergence is None:
            missing_index, missing = self._expected[0]
            self._diverge("missing", missing_index,
                          "recorded event did not occur during replay",
                          expected=missing.data, actual=None)
        final_digest = state_digest(self.machine, self.monitor,
                                    extra={"t2h": self._t2h_evidence()})
        self.monitor.replay_status = {
            "frame": self.frames_applied, "total": total,
            "mode": self._mode(),
            "divergence": (self.divergence.to_dict()
                           if self.divergence else None)}
        return ReplayResult(
            ok=self.divergence is None,
            divergence=self.divergence,
            frames_applied=self.frames_applied,
            final_digest=final_digest,
            t2h=self._t2h_evidence(),
            checks=checks,
            violations=violations,
            machine=self.machine,
            monitor=self.monitor)

    def _mode(self) -> str:
        if self.probe_frame is not None:
            return "probe"
        return "strict" if self.strict else "relaxed"


def replay_journal(journal: Journal, strict: bool = True,
                   probe_frame: Optional[int] = None,
                   stop_after: Optional[int] = None) -> ReplayResult:
    """One-shot replay; see :class:`Replayer`."""
    if probe_frame is not None:
        strict = False
        stop_after = probe_frame
    return Replayer(journal, strict=strict, probe_frame=probe_frame,
                    stop_after=stop_after).run()


@dataclass
class BisectReport:
    """Bracketing of a divergence by evidence probes."""

    last_good_frame: Optional[int]
    first_bad_frame: Optional[int]
    probes_run: int
    divergence: Optional[Divergence]

    def to_dict(self) -> Dict:
        return {"last_good_frame": self.last_good_frame,
                "first_bad_frame": self.first_bad_frame,
                "probes_run": self.probes_run,
                "divergence": (self.divergence.to_dict()
                               if self.divergence else None)}


def bisect_divergence(journal: Journal) -> Optional[BisectReport]:
    """Locate the first divergent step with O(log n) prefix replays.

    Each probe replays the journal prefix without verification and then
    checks a single evidence frame (micro-digest or state digest).
    Binary search over the evidence frames brackets the divergence
    between the last probe that matches and the first that does not; a
    strict replay bounded to the bad probe then names the exact event.
    Returns None when every probe matches and a full strict replay is
    clean — the journal replays faithfully.
    """
    probes = [index for index, frame in enumerate(journal.frames)
              if frame.kind in EVIDENCE_KINDS]
    probes_run = 0

    def probe_ok(frame_index: int) -> bool:
        return replay_journal(journal, probe_frame=frame_index).ok

    if not probes:
        strict = replay_journal(journal, strict=True)
        return None if strict.ok else BisectReport(
            None, None, 0, strict.divergence)

    # Fast path: if the final evidence matches, digest-level state never
    # split; a strict pass still cross-checks the event stream.
    probes_run += 1
    if probe_ok(probes[-1]):
        strict = replay_journal(journal, strict=True)
        if strict.ok:
            return None
        return BisectReport(None, strict.divergence.frame_index,
                            probes_run, strict.divergence)

    low, high = 0, len(probes) - 1   # invariant: probes[high] is bad
    while low < high:
        mid = (low + high) // 2
        probes_run += 1
        if probe_ok(probes[mid]):
            low = mid + 1
        else:
            high = mid
    first_bad = probes[high]
    last_good = probes[high - 1] if high > 0 else None
    strict = replay_journal(journal, strict=True, stop_after=first_bad)
    divergence = strict.divergence
    if divergence is None:
        # Evidence mismatched under probe but the event stream was
        # clean: re-run the probe to report the micro/digest failure.
        divergence = replay_journal(journal,
                                    probe_frame=first_bad).divergence
    return BisectReport(last_good, first_bad, probes_run, divergence)
