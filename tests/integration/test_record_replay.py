"""End-to-end record/replay: capture a chaos failure, replay it to the
identical failure, detect deliberate divergence, and minimize."""

import copy
import os

import pytest

from repro.errors import JournalError, MonitorError
from repro.faults.campaign import run_scenario
from repro.replay import (
    FRAME_EVENT,
    FlightRecorder,
    Frame,
    Journal,
    bisect_divergence,
    load_journal,
    loads_journal,
    minimize_journal,
    replay_journal,
    save_journal,
)

SEED = 1234
#: The version 1 golden: recorded before page-hash digests, kept
#: byte-unchanged so the v1 read path stays exercised.
GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden",
                      "replay_wild-writes_seed1234.journal")
#: The same recording in the current (version 2) format.
GOLDEN_V2 = os.path.join(os.path.dirname(__file__), "..", "golden",
                         "replay_wild-writes_seed1234.v2.journal")


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    """One strict-guest wild-writes run, recorded to a journal."""
    journal_dir = tmp_path_factory.mktemp("journals")
    result = run_scenario("wild-writes", SEED, strict_guest=True,
                          journal_dir=str(journal_dir))
    return result, journal_dir


def _copy(journal):
    return Journal(header=dict(journal.header),
                   frames=[Frame(f.type, copy.deepcopy(f.data))
                           for f in journal.frames],
                   version=journal.version)


class TestFailureCapture:
    def test_forced_failure_emits_journal(self, captured):
        result, _ = captured
        assert not result["ok"]
        assert any("guest died" in v for v in result["violations"])
        assert "journal" in result
        assert os.path.exists(result["journal"])

    def test_journal_is_complete_and_typed(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        assert journal.complete and not journal.truncated
        counts = journal.counts_by_kind()
        assert counts["wild-write"] > 0
        assert counts["run"] > 0
        assert counts["xc-irq"] > 0
        assert counts["checkpoint"] >= 1
        checks = journal.end_frame.data["checks"]
        assert {"check": "guest-dead"} in checks

    def test_recorder_stats_exported(self, captured):
        result, _ = captured
        recorder = result["fault_stats"]["recorder"]
        assert recorder["finished"]
        assert recorder["frames"] > 0
        assert recorder["journal_bytes"] > 0

    def test_passing_run_keeps_no_journal(self, tmp_path):
        result = run_scenario("wild-writes", SEED,
                              journal_dir=str(tmp_path))
        assert result["ok"]
        assert "journal" not in result
        assert list(tmp_path.iterdir()) == []


class TestReplay:
    def test_strict_replay_reproduces_identical_failure(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        replay = replay_journal(journal, strict=True)
        assert replay.ok, replay.divergence
        assert replay.checks == {"guest-dead": True}
        assert replay.reproduced
        # The final machine state digests exactly as recorded.
        assert replay.final_digest == journal.end_frame.data["digest"]
        # Right down to the guest's cause of death.
        recorded = result["violations"][0]
        assert replay.monitor.guest_dead_reason in recorded

    def test_replay_is_deterministic(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        first = replay_journal(journal, strict=True)
        second = replay_journal(journal, strict=True)
        assert first.final_digest == second.final_digest

    def test_replayer_reports_progress_via_monitor_command(
            self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        replay = replay_journal(journal, strict=True)
        output = replay.monitor.monitor_command("replay")
        assert "replay: frame" in output
        assert "no divergence" in output

    def test_truncated_journal_still_replays_prefix(self, captured):
        result, _ = captured
        with open(result["journal"], "rb") as handle:
            blob = handle.read()
        cut = loads_journal(blob[:len(blob) - 20])
        assert cut.truncated and not cut.complete
        replay = replay_journal(cut, strict=True)
        assert replay.ok, replay.divergence


class TestDivergenceDetection:
    def _corrupt(self, journal):
        """Nudge one recorded wild-write's address."""
        bad = _copy(journal)
        for frame in bad.frames:
            if frame.kind == "wild-write":
                frame.data["addr"] ^= 0x40
                return bad
        raise AssertionError("no wild-write frame to corrupt")

    def test_strict_replay_names_first_divergent_frame(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        replay = replay_journal(self._corrupt(journal), strict=True)
        assert not replay.ok
        d = replay.divergence
        assert d is not None
        # The moved write still dies, for a different reason: the
        # xc-death evidence after the wild-write differs.
        assert (d.kind, d.frame_index) == ("event", 51)
        assert d.expected != d.actual

    def test_bisect_brackets_and_names_divergence(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        report = bisect_divergence(self._corrupt(journal))
        assert report is not None
        assert report.first_bad_frame is not None
        assert report.divergence is not None
        if report.last_good_frame is not None:
            assert report.last_good_frame < report.first_bad_frame
        # The bisection needs logarithmic, not linear, probe replays.
        assert report.probes_run <= 8

    def test_clean_journal_bisects_to_none(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        assert bisect_divergence(journal) is None


def _first(journal, kind):
    return next(index for index, frame in enumerate(journal.frames)
                if frame.kind == kind)


def _flip_irq_line(journal):
    journal.frames[_first(journal, "xc-irq")].data["line"] ^= 1


def _bump_run_instret(journal):
    journal.frames[_first(journal, "run")].data["instret"] += 1


def _zero_checkpoint_digest(journal):
    journal.frames[_first(journal, "checkpoint")].data["digest"] = "0" * 64


def _fabricate_irq_before_end(journal):
    journal.frames.insert(len(journal.frames) - 1, Frame(
        FRAME_EVENT, {"kind": "xc-irq", "line": 0, "cycle": 0}))


def _delete_first_irq(journal):
    del journal.frames[_first(journal, "xc-irq")]


class TestDivergenceTaxonomy:
    """One edit of the golden journal per divergence kind; the strict
    replay and the bisection both name the edited frame."""

    @pytest.mark.parametrize("edit, kind, frame_index", [
        (_flip_irq_line, "event", 1),
        (_bump_run_instret, "micro", 44),
        (_zero_checkpoint_digest, "digest", 48),
        (_fabricate_irq_before_end, "missing", 109),
        (_delete_first_irq, "event", 30),
    ], ids=["event-differs", "micro", "digest", "missing", "event-extra"])
    def test_edit_names_kind_and_frame(self, edit, kind, frame_index):
        journal = _copy(load_journal(GOLDEN))
        edit(journal)
        divergence = replay_journal(journal, strict=True).divergence
        assert divergence is not None
        assert (divergence.kind, divergence.frame_index) \
            == (kind, frame_index)
        report = bisect_divergence(journal)
        assert (report.last_good_frame, report.first_bad_frame,
                report.probes_run) == (None, frame_index, 1)
        assert report.divergence.to_dict() == divergence.to_dict()


class TestMinimization:
    def test_minimized_journal_is_smaller_and_reproduces(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        minimized = minimize_journal(journal)
        assert minimized.reproduced
        assert minimized.reduced
        assert minimized.journal.size_bytes < journal.size_bytes
        # The artifact stands alone: relaxed replay of the minimized
        # journal still kills the guest.
        replay = replay_journal(minimized.journal, strict=False)
        assert replay.checks == {"guest-dead": True}
        assert replay.final_digest \
            == minimized.journal.end_frame.data["digest"]

    def test_minimizer_refuses_passing_journal(self, captured):
        result, _ = captured
        journal = load_journal(result["journal"])
        neutered = _copy(journal)
        neutered.frames[-1].data["checks"] = []
        with pytest.raises(JournalError):
            minimize_journal(neutered)


class TestRecorderPlumbing:
    def _recorded_session(self):
        from repro.asm import assemble
        from repro.core import DebugSession
        from repro.hw import firmware
        sess = DebugSession(monitor="lvmm")
        program = assemble(f".org {firmware.GUEST_KERNEL_BASE}\n"
                           "loop:\n    NOP\n    JMP loop\n")
        recorder = FlightRecorder(sess.machine, sess.monitor,
                                  program=program, scenario="unit",
                                  seed=1)
        sess.load_and_boot(program)
        sess.attach()
        return sess, recorder

    def test_monitor_record_command_reports_counters(self):
        sess, recorder = self._recorded_session()
        sess.run_guest(1_000)
        output = sess.client.monitor_command("record")
        assert "recording: on" in output
        assert "frames:" in output
        forced = sess.client.monitor_command("record checkpoint")
        assert "checkpoint taken" in forced
        assert recorder.counters["checkpoints"] >= 1

    def test_monitor_record_command_off_without_recorder(self):
        from repro.core import DebugSession
        from repro.guest import KernelConfig, build_kernel
        sess = DebugSession(monitor="lvmm")
        sess.load_and_boot(build_kernel(KernelConfig()))
        sess.attach()
        assert "recording: off" in sess.client.monitor_command("record")
        assert "replay: off" in sess.client.monitor_command("replay")

    def test_double_attach_rejected(self):
        sess, _ = self._recorded_session()
        with pytest.raises(MonitorError):
            FlightRecorder(sess.machine, sess.monitor)

    def test_finish_detaches_taps(self):
        sess, recorder = self._recorded_session()
        sess.run_guest(500)
        recorder.finish()
        assert not sess.monitor.record_taps
        assert not sess.machine.serial_link.taps
        with pytest.raises(MonitorError):
            recorder.finish()


class TestGoldenJournal:
    def test_recording_matches_golden_journal(self, captured):
        """Recording is bit-stable: the same seed produces the same
        journal, byte for byte.  When behaviour changes intentionally,
        regenerate the golden with::

            repro-replay record --scenario wild-writes --seed 1234 \
                --strict-guest -o tests/golden/replay_wild-writes_seed1234.v2.journal
        """
        result, _ = captured
        with open(result["journal"], "rb") as handle:
            fresh = handle.read()
        with open(GOLDEN_V2, "rb") as handle:
            golden = handle.read()
        assert fresh == golden


class TestJournalVersions:
    """Digests follow the journal's own version: a v1 journal replays,
    bisects and minimizes under v1 rules, a fresh one is v2."""

    def test_goldens_differ_only_in_state_digests(self):
        v1, v2 = load_journal(GOLDEN), load_journal(GOLDEN_V2)
        assert (v1.version, v2.version) == (1, 2)
        assert v1.header == v2.header
        changed = [frame.kind for frame, other in zip(v1.frames, v2.frames)
                   if frame.data != other.data]
        assert len(v1.frames) == len(v2.frames)
        assert set(changed) == {"checkpoint", "end"}

    @pytest.mark.parametrize("path", [GOLDEN, GOLDEN_V2], ids=["v1", "v2"])
    def test_strict_replay_has_no_divergence(self, path):
        journal = load_journal(path)
        result = replay_journal(journal, strict=True)
        assert result.ok and result.divergence is None
        assert result.reproduced
        assert result.end_frame == journal.end_frame

    def test_minimize_keeps_the_v1_format(self, tmp_path):
        from repro.replay.cli import main
        minimized = minimize_journal(load_journal(GOLDEN)).journal
        assert minimized.version == 1
        path = str(tmp_path / "minimal.journal")
        save_journal(minimized, path)
        assert load_journal(path).version == 1
        assert main(["verify", "--relaxed", path]) == 0
