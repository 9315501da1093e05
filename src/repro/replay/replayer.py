"""Re-drive a fresh machine from a journal and cross-check it.

The walker applies frames in order: ``uart-rx`` bytes are pushed into
the serial link, ``run``/``svc`` frames re-execute the recorded host
interleaving, ``wild-write``/``spurious-irq`` frames re-fire the
campaign triggers.  Because the simulator is deterministic, everything
else must *re-happen* — and the journal carries the evidence to prove
it did.

A replay is a second recording: the replayer attaches a
:class:`~repro.replay.recorder.FlightRecorder` to the machine it
rebuilds (before boot, as the recording did) and compares every
evidence frame that recorder appends — ``xc-*`` events, ``run``/``svc``
micro-digests, ``checkpoint``/``end`` state digests — with the next
recorded evidence frame.  The evidence format is thus written in one
place.  The first mismatch is the divergence, pinned to a frame index,
instruction count and cycle.

:func:`bisect_divergence` runs O(log n) relaxed prefix replays against
the recorded micro-digests to bracket a divergence between the last
good and first bad evidence frame, then a bounded strict replay names
the exact event.  :func:`evaluate_checks` re-evaluates a journal's
failure predicates against the final replayed state — the contract the
minimizer shrinks against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import JournalError
from repro.hw.machine import Machine
from repro.replay.journal import Frame, Journal, machine_config, typed_field
from repro.replay.recorder import FlightRecorder, OP_KINDS, XC_KINDS

#: Frame kinds that carry checkable evidence (bisection probe points).
EVIDENCE_KINDS = ("run", "svc", "checkpoint", "end")
#: Frame kinds a strict replay regenerates and compares, in order.
COMPARED_KINDS = XC_KINDS + EVIDENCE_KINDS


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
    #: The end frame the replay's own recorder wrote.
    end_frame: Optional[Frame] = None
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
        name = (str(check.get("check", "?")) if isinstance(check, dict)
                else "?")
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
        self.frames_applied = 0
        #: Recorded evidence frames (indices) not yet matched; a strict
        #: replay pairs each regenerated evidence frame with the first.
        self._pending = deque(
            index for index, frame in enumerate(journal.frames)
            if strict and frame.kind in COMPARED_KINDS
            and (stop_after is None or index <= stop_after))
        #: The frame being applied, and whether what the recorder
        #: appends meanwhile is checked.
        self._index = 0
        self._verify = False
        self._build_machine()

    # -- machine construction ------------------------------------------------

    def _build_machine(self) -> None:
        from repro.vmm.monitor import LightweightVmm
        header = self.journal.header
        if header.get("monitor") != "lvmm":
            raise JournalError(
                f"cannot replay monitor {header.get('monitor')!r}")
        guest = header.get("guest")
        if not guest:
            raise JournalError("journal has no guest image to replay")
        origin = typed_field(guest, "origin", int, "journal header guest")
        image = typed_field(guest, "image", bytes, "journal header guest")
        self.machine = Machine(machine_config(header))
        self.monitor = LightweightVmm(self.machine)
        self.monitor.install()
        # Re-record the run in the journal's own format; checkpoints
        # are taken only where the journal has one to verify.
        self.recorder = FlightRecorder(self.machine, self.monitor,
                                       checkpoint_every=0,
                                       version=self.journal.version)
        self.recorder.frame_taps.subscribe(self._on_frame)
        # Mirror DebugSession.load_and_boot: image, boot, attach stopped.
        self.machine.memory.write(origin, image)
        self.monitor.boot_guest(origin)
        self.monitor.stopped = True

    def detach(self) -> None:
        """Leave the rebuilt machine unobserved (idempotent).

        Afterwards ``monitor.recorder`` is finished or None, so a new
        :class:`FlightRecorder` (or any other observer) can take over —
        the fleet's journal-based worker recovery resumes sessions this
        way.  A completed :meth:`run` has already finished the replay's
        recorder.
        """
        if not self.recorder.finished:
            self.recorder.detach()
            self.monitor.recorder = None

    # -- evidence matching ---------------------------------------------------

    def _on_frame(self, frame: Frame) -> None:
        """The replay's recorder appended ``frame``; check it."""
        kind = frame.kind
        if not self._verify or self.divergence is not None \
                or kind not in COMPARED_KINDS:
            return
        if self.strict:
            index = self._pending.popleft() if self._pending else None
        elif kind in XC_KINDS:
            return  # a probe checks only its own frame's evidence
        else:
            index = self.probe_frame
        recorded = self.journal.frames[index] if index is not None else None
        if recorded is not None and recorded.kind in XC_KINDS:
            if kind not in XC_KINDS:
                self._diverge("missing", index,
                              "recorded event did not occur during "
                              "replay", expected=recorded.data)
            elif recorded.data != frame.data:
                self._diverge("event", index,
                              "replayed event differs from recorded "
                              "evidence",
                              expected=recorded.data, actual=frame.data)
        elif kind in XC_KINDS:
            self._diverge("event", self._index,
                          "replay generated an event the recording "
                          f"does not contain: {frame.data}",
                          actual=frame.data)
        elif recorded is not None and recorded.data != frame.data:
            self._mismatch(index, recorded, frame)

    def _mismatch(self, index: int, recorded: Frame, frame: Frame) -> None:
        """An op (micro-digest) or checkpoint/end (state digest) differs."""
        if recorded.kind in OP_KINDS:
            keys = ("instret", "cycle", "t2h")
            if recorded.kind == "run":
                keys += ("executed",)
            self._diverge(
                "micro", index, f"{recorded.kind} micro-digest mismatch",
                expected={key: recorded.data.get(key) for key in keys},
                actual={key: frame.data.get(key) for key in keys})
        else:
            self._diverge(
                "digest", index, f"{recorded.kind} state digest mismatch",
                expected={"digest": recorded.data.get("digest")},
                actual={"digest": frame.data.get("digest")})

    def _diverge(self, kind: str, frame_index: int, message: str,
                 expected=None, actual=None) -> None:
        if self.divergence is not None:
            return
        cpu = self.machine.cpu
        self.divergence = Divergence(
            frame_index=frame_index, kind=kind, message=message,
            expected=expected, actual=actual,
            instret=cpu.instret, cycle=cpu.cycle_count)

    # -- the walk ------------------------------------------------------------

    def _apply(self, index: int, frame: Frame) -> None:
        """Re-drive one input, operation, checkpoint or end frame."""
        kind = frame.kind
        data = frame.data
        where = f"frame {index} ({kind})"
        monitor = self.monitor
        if kind == "uart-rx":
            link = self.machine.serial_link
            link.b_to_a.extend(typed_field(data, "data", bytes, where))
            link._kick()
        elif kind == "svc":
            monitor.service_debugger()
        elif kind == "run":
            limit = typed_field(data, "max", int, where)
            monitor.stopped = typed_field(data, "pre_stopped", bool, where)
            monitor.run(limit)
        elif kind == "wild-write":
            monitor.inject_wild_write(typed_field(data, "addr", int, where),
                                      typed_field(data, "data", bytes, where))
        elif kind == "spurious-irq":
            line = typed_field(data, "line", int, where)
            if not 0 <= line < 16:
                raise JournalError(f"{where}: no IRQ line {line}")
            monitor.inject_spurious_interrupt(line)
        elif kind == "checkpoint":
            if self._verify:
                self.recorder.checkpoint()
        elif kind == "end":
            violations = typed_field(data, "violations", list, where)
            checks = typed_field(data, "checks", list, where)
            if not self.recorder.finished:  # else a second end frame
                self.recorder.finish(violations=violations, checks=checks)
        else:
            self._diverge("event", index,
                          f"journal contains unknown frame kind {kind!r}")

    def _report(self, frame: int, total: int) -> None:
        """Publish progress for the ``monitor replay`` command."""
        self.monitor.replay_status = {
            "frame": frame, "total": total, "mode": self._mode(),
            "divergence": (self.divergence.to_dict()
                           if self.divergence else None)}

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
            self._report(index, total)
            if frame.kind == "rng" or frame.kind in XC_KINDS:
                continue  # evidence and provenance: regenerated, not applied
            self._index = index
            self._verify = self.strict or index == self.probe_frame
            self._apply(index, frame)
            if frame.kind == "end":
                checks = evaluate_checks(frame.data["checks"],
                                         self.machine, self.monitor)
                violations = list(frame.data["violations"])
            self.frames_applied += 1
            if index == self.probe_frame:
                break
        self._verify = False
        if self._pending and self.divergence is None:
            index = self._pending[0]
            self._diverge("missing", index,
                          "recorded event did not occur during replay",
                          expected=frames[index].data)
        if not self.recorder.finished:
            self.recorder.finish()
        end = self.recorder.journal.frames[-1]
        self._report(self.frames_applied, total)
        return ReplayResult(
            ok=self.divergence is None,
            divergence=self.divergence,
            frames_applied=self.frames_applied,
            final_digest=end.data["digest"],
            t2h=end.data["t2h"],
            end_frame=end,
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
