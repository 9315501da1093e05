"""Unit tests for the replay journal container (format + durability)."""

import os
import re

import pytest

from repro.errors import JournalError
from repro.hw.machine import MachineConfig
from repro.replay.journal import (
    FRAME_CHECKPOINT,
    FRAME_END,
    FRAME_EVENT,
    FRAME_HEADER,
    HEADER_CONFIG,
    MAGIC,
    READ_VERSIONS,
    VERSION,
    Frame,
    Journal,
    header_config,
    load_journal,
    loads_journal,
    machine_config,
    save_journal,
)


def _journal(n_events=3, with_end=True):
    frames = [Frame(FRAME_EVENT, {"kind": "run", "max": 500,
                                  "executed": 100 + index})
              for index in range(n_events)]
    frames.append(Frame(FRAME_CHECKPOINT,
                        {"kind": "checkpoint", "digest": "ab" * 32}))
    if with_end:
        frames.append(Frame(FRAME_END, {"kind": "end", "violations": [],
                                        "checks": [], "digest": "cd" * 32}))
    return Journal(header={"scenario": "test", "seed": 7,
                           "monitor": "lvmm"}, frames=frames)


class TestRoundTrip:
    def test_bytes_round_trip(self):
        journal = _journal()
        loaded = loads_journal(journal.to_bytes())
        assert loaded.header == journal.header
        assert len(loaded.frames) == len(journal.frames)
        assert [f.data for f in loaded.frames] \
            == [f.data for f in journal.frames]
        assert not loaded.truncated

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "test.journal"
        journal = _journal()
        save_journal(journal, path)
        loaded = load_journal(path)
        assert loaded.header == journal.header
        assert loaded.complete

    def test_complete_and_end_frame(self):
        assert _journal(with_end=True).complete
        incomplete = _journal(with_end=False)
        assert not incomplete.complete
        assert incomplete.end_frame is None

    def test_counts_by_kind(self):
        counts = _journal().counts_by_kind()
        assert counts["run"] == 3
        assert counts["checkpoint"] == 1
        assert counts["end"] == 1

    def test_encoding_is_deterministic(self):
        assert _journal().to_bytes() == _journal().to_bytes()

    @pytest.mark.parametrize("version", READ_VERSIONS)
    def test_every_read_version_round_trips(self, version):
        journal = _journal()
        journal.version = version
        blob = journal.to_bytes()
        loaded = loads_journal(blob, strict=True)
        assert loaded.version == version
        assert loaded.to_bytes() == blob

    def test_frames_are_hashed_under_the_file_version(self):
        blob = bytearray(_journal().to_bytes())
        assert blob[len(MAGIC)] == VERSION
        blob[len(MAGIC)] = 1
        with pytest.raises(JournalError, match="frame digest mismatch"):
            loads_journal(bytes(blob), strict=True)


class TestDurability:
    """Crash-consistency: a damaged tail never loses the intact head."""

    def test_truncated_tail_recovered(self):
        blob = _journal().to_bytes()
        # Cut mid-way through the final frame.
        cut = loads_journal(blob[:len(blob) - 10])
        assert cut.truncated
        assert not cut.complete
        assert len(cut.frames) == len(_journal().frames) - 1

    def test_corrupt_digest_ends_parse(self):
        blob = bytearray(_journal().to_bytes())
        blob[-1] ^= 0xFF          # flip a bit in the last frame digest
        loaded = loads_journal(bytes(blob))
        assert loaded.truncated
        assert not loaded.complete

    def test_corrupt_payload_detected(self):
        journal = _journal()
        blob = bytearray(journal.to_bytes())
        # Flip a payload byte of the final frame (not its digest).
        end_len = len(journal.frames[-1].encode())
        blob[len(blob) - end_len + 8] ^= 0xFF
        loaded = loads_journal(bytes(blob))
        assert loaded.truncated

    def test_strict_mode_raises_on_damage(self):
        blob = _journal().to_bytes()
        with pytest.raises(JournalError):
            loads_journal(blob[:len(blob) - 10], strict=True)

    def test_every_prefix_loads_or_raises_cleanly(self):
        """No prefix length can crash the loader or corrupt a frame."""
        blob = _journal().to_bytes()
        good = 0
        for cut in range(len(blob)):
            try:
                loaded = loads_journal(blob[:cut])
            except JournalError:
                continue
            good += 1
            for frame in loaded.frames:
                assert isinstance(frame.data, dict)
        assert good > 0


class TestValidation:
    def test_bad_magic_rejected(self):
        with pytest.raises(JournalError):
            loads_journal(b"NOTJRNL0" + b"\x01\x00")

    def test_bad_version_rejected(self):
        with pytest.raises(JournalError):
            loads_journal(MAGIC + b"\xff\x00")

    def test_missing_header_rejected(self):
        # Valid magic but zero intact frames.
        with pytest.raises(JournalError):
            loads_journal(MAGIC + b"\x01\x00")

    def test_insane_length_prefix_rejected(self):
        blob = bytearray(_journal().to_bytes())
        # Overwrite the header frame's length with a huge value; the
        # loader must refuse rather than try to slurp it.
        blob[10] = 0xFF
        blob[11] = 0xFF
        blob[12] = 0xFF
        with pytest.raises(JournalError):
            loads_journal(bytes(blob))

    def test_unknown_frame_kind_names_structural_type(self):
        frame = Frame(FRAME_EVENT, {"x": 1})
        assert frame.kind == "event"
        assert Frame(FRAME_END, {}).kind == "end"


# ----------------------------------------------------------------------
# Journal contents: the header's machine config and hostile frames
# ----------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden",
                      "replay_wild-writes_seed1234.journal")


def _golden_frame(journal, kind):
    return next(frame for frame in journal.frames if frame.kind == kind)


class TestHeaderConfig:
    def test_round_trip_keeps_the_header_fields(self):
        config = MachineConfig(memory_size=1 << 22, with_nic=False,
                               disks=[(64, 9)])
        header = {"config": header_config(config)}
        assert set(header["config"]) == set(HEADER_CONFIG)
        rebuilt = machine_config(header)
        for name in HEADER_CONFIG:
            assert getattr(rebuilt, name) == getattr(config, name)

    def test_golden_header_is_the_default_machine(self):
        header = load_journal(GOLDEN).header
        assert header["config"] == header_config(MachineConfig())


def _drop_cpu_hz(journal):
    del journal.header["config"]["cpu_hz"]


def _non_hex_image(journal):
    journal.header["guest"]["image"] = "zz"


def _run_without_max(journal):
    del _golden_frame(journal, "run").data["max"]


def _string_wild_write_addr(journal):
    _golden_frame(journal, "wild-write").data["addr"] = "0x1000"


def _non_hex_uart_rx(journal):
    _golden_frame(journal, "uart-rx").data["data"] = "not hex"


def _spurious_irq_line_out_of_range(journal):
    _golden_frame(journal, "spurious-irq").data["line"] = -1


def _memory_size(size):
    def edit(journal):
        journal.header["config"]["memory_size"] = size
    return edit


class TestMalformedContents:
    """Valid framing, bad contents: replay raises JournalError naming
    where, and ``repro-replay verify`` exits 2 with ``error:``."""

    @pytest.mark.parametrize("edit, where", [
        (_drop_cpu_hz, "journal header config: bad 'cpu_hz'"),
        (_non_hex_image, "journal header guest: bad 'image'"),
        (_run_without_max, "frame 44 (run): bad 'max'"),
        (_string_wild_write_addr, "frame 50 (wild-write): bad 'addr'"),
        (_non_hex_uart_rx, "frame 0 (uart-rx): bad 'data'"),
        (_spurious_irq_line_out_of_range,
         "frame 54 (spurious-irq): no IRQ line -1"),
        (_memory_size(1 << 40), "journal header config: bad 'memory_size'"),
        (_memory_size(0), "journal header config: bad 'memory_size'"),
        (_memory_size(-4096), "journal header config: bad 'memory_size'"),
    ], ids=["config-no-cpu-hz", "guest-image-not-hex", "run-no-max",
            "wild-write-addr-string", "uart-rx-not-hex",
            "spurious-irq-line-out-of-range", "memory-size-1TiB",
            "memory-size-zero", "memory-size-negative"])
    def test_rejected_with_journal_error(self, edit, where, tmp_path,
                                         capsys):
        from repro.replay import replay_journal
        from repro.replay.cli import main
        journal = load_journal(GOLDEN)
        edit(journal)
        path = str(tmp_path / "malformed.journal")
        save_journal(journal, path)
        with pytest.raises(JournalError, match=re.escape(where)):
            replay_journal(load_journal(path))
        assert main(["verify", path]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}")

    def test_malformed_checks_evaluate_false(self):
        from repro.replay import evaluate_checks
        checks = [5, {"check": ["guest-dead"]}, {"check": "guest-dead"}]
        monitor = type("Monitor", (), {"guest_dead": True})()
        assert evaluate_checks(checks, None, monitor) == {
            "?": False, "['guest-dead']": False, "guest-dead": True}


# ----------------------------------------------------------------------
# JournalWriter: incremental, kill-safe spooling
# ----------------------------------------------------------------------

import signal
import subprocess
import sys

from repro.replay.journal import JournalWriter


class TestJournalWriter:
    def test_spooled_bytes_identical_to_in_memory_encoding(self, tmp_path):
        journal = _journal()
        path = tmp_path / "spool.journal"
        writer = JournalWriter(path, journal.header)
        for frame in journal.frames:
            writer.append(frame)
        writer.close()
        assert path.read_bytes() == journal.to_bytes()
        assert writer.frames_written == len(journal.frames)
        assert writer.bytes_written == len(journal.to_bytes())

    def test_spool_writes_the_requested_version(self, tmp_path):
        journal = _journal()
        journal.version = 1
        path = tmp_path / "v1.journal"
        writer = JournalWriter(path, journal.header, version=1)
        for frame in journal.frames:
            writer.append(frame)
        writer.close()
        assert path.read_bytes() == journal.to_bytes()
        assert load_journal(path).version == 1

    def test_close_is_idempotent_and_seals_appends(self, tmp_path):
        writer = JournalWriter(tmp_path / "x.journal", {"scenario": "t"})
        writer.append(Frame(FRAME_EVENT, {"kind": "run", "max": 1}))
        writer.close()
        writer.close()
        assert writer.closed
        with pytest.raises(JournalError):
            writer.append(Frame(FRAME_EVENT, {"kind": "run", "max": 2}))

    def test_fsync_optional(self, tmp_path):
        path = tmp_path / "nofsync.journal"
        writer = JournalWriter(path, {"scenario": "t"}, fsync=False)
        writer.append(Frame(FRAME_EVENT, {"kind": "run", "max": 1}))
        writer.close()
        loaded = load_journal(path)
        assert len(loaded.frames) == 1


_SPOOL_CHILD = """\
import sys
sys.path[:0] = {sys_path!r}
from repro.replay.journal import FRAME_EVENT, Frame, JournalWriter

writer = JournalWriter({path!r}, {{"scenario": "kill-test"}})
{arm_sigterm}
for index in range(100_000):
    writer.append(Frame(FRAME_EVENT,
                        {{"kind": "run", "max": 500, "executed": index}}))
    if index == 20:
        print("ready", flush=True)
"""


def _spawn_spooler(path, arm_sigterm=False):
    """Run a child that spools frames forever, wait until it has
    written at least 20 of them."""
    code = _SPOOL_CHILD.format(
        sys_path=[entry for entry in sys.path if entry],
        path=str(path),
        arm_sigterm="writer.install_sigterm_close()"
                    if arm_sigterm else "")
    child = subprocess.Popen([sys.executable, "-c", code],
                             stdout=subprocess.PIPE)
    assert child.stdout.readline().strip() == b"ready"
    return child


class TestJournalWriterKillSafety:
    def test_sigkill_mid_write_leaves_a_recoverable_journal(
            self, tmp_path):
        """kill -9 while spooling: everything up to the last frame
        boundary survives; the loader absorbs any torn tail."""
        path = tmp_path / "killed.journal"
        child = _spawn_spooler(path)
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=10)
        assert child.returncode == -signal.SIGKILL
        journal = load_journal(path, strict=False)
        assert not journal.complete          # no END frame, by design
        assert len(journal.frames) >= 20
        # Every recovered frame is intact and in order.
        for index, frame in enumerate(journal.frames):
            assert frame.data["executed"] == index

    def test_sigterm_seals_the_spool_and_exits_143(self, tmp_path):
        """A politely-terminated writer closes the spool from its
        SIGTERM handler: no torn tail at all."""
        path = tmp_path / "terminated.journal"
        child = _spawn_spooler(path, arm_sigterm=True)
        os.kill(child.pid, signal.SIGTERM)
        child.wait(timeout=10)
        assert child.returncode == 143
        journal = load_journal(path, strict=False)
        assert not journal.truncated
        assert len(journal.frames) >= 20

    def test_every_sigkill_prefix_is_loadable(self, tmp_path):
        """Brute-force the crash window: whatever byte the writer died
        on, the spool loads without raising."""
        path = tmp_path / "prefix.journal"
        writer = JournalWriter(path, {"scenario": "t"})
        for index in range(5):
            writer.append(Frame(FRAME_EVENT,
                                {"kind": "run", "executed": index}))
        writer.close()
        blob = path.read_bytes()
        header_len = len(MAGIC) + 2 \
            + len(Frame(FRAME_HEADER, {"scenario": "t"}).encode())
        for cut in range(header_len, len(blob)):
            journal = loads_journal(blob[:cut])
            for frame in journal.frames:
                assert frame.data["kind"] == "run"
