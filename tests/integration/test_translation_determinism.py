"""Superblock translation must be invisible to every determinism
surface the repo has: replay journals, the golden streaming trace,
profiler sample placement, and the monitor's executed/cycle ledgers.

The ablation handle is ``Cpu.TRANSLATE_DEFAULT`` — every machine built
while it is False runs pure decode-cache interpretation, so each test
here records the same workload under both settings and demands
byte-identical artifacts."""

import os

import pytest

from repro.asm import assemble
from repro.baremetal import BareMetalRunner
from repro.core.session import DebugSession
from repro.faults.campaign import run_scenario
from repro.hw import firmware
from repro.hw.cpu import Cpu
from repro.hw.machine import Machine
from repro.obs.cli import main as trace_main
from repro.obs.profiler import GuestProfiler

SEED = 1234
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")
GOLDEN_JOURNAL = os.path.join(GOLDEN_DIR,
                              "replay_wild-writes_seed1234.v2.journal")
GOLDEN_TRACE = os.path.join(GOLDEN_DIR, "trace_streaming_seed1234.json")

GUEST_LOOP = """
loop:
    NOP
    ADDI R1, 1
    ADDI R2, 3
    XORI R3, 0x5A
    JMP  loop
"""


@pytest.fixture
def translation_off(monkeypatch):
    monkeypatch.setattr(Cpu, "TRANSLATE_DEFAULT", False)


def _wild_writes_journal(tmp_path, tag) -> bytes:
    journal_dir = tmp_path / tag
    journal_dir.mkdir()
    result = run_scenario("wild-writes", SEED, strict_guest=True,
                          journal_dir=str(journal_dir))
    assert not result["ok"] and "journal" in result
    with open(result["journal"], "rb") as handle:
        return handle.read()


class TestReplayJournals:
    def test_wild_writes_journal_is_translation_invariant(
            self, tmp_path, monkeypatch):
        with_translation = _wild_writes_journal(tmp_path, "on")
        monkeypatch.setattr(Cpu, "TRANSLATE_DEFAULT", False)
        without = _wild_writes_journal(tmp_path, "off")
        assert with_translation == without

    def test_wild_writes_journal_matches_golden(self, tmp_path):
        """Translation is ON by default: the golden journal must
        still be reproduced bit-for-bit."""
        recorded = _wild_writes_journal(tmp_path, "golden-check")
        with open(GOLDEN_JOURNAL, "rb") as handle:
            golden = handle.read()
        assert recorded == golden, \
            "superblock translation perturbed the replay journal"


class TestGoldenTrace:
    def test_streaming_trace_is_translation_invariant(
            self, tmp_path, monkeypatch):
        on = tmp_path / "on.json"
        assert trace_main(["record", "--scenario", "streaming",
                           "--seed", str(SEED), "--out", str(on)]) == 0
        monkeypatch.setattr(Cpu, "TRANSLATE_DEFAULT", False)
        off = tmp_path / "off.json"
        assert trace_main(["record", "--scenario", "streaming",
                           "--seed", str(SEED), "--out", str(off)]) == 0
        assert on.read_bytes() == off.read_bytes()
        with open(GOLDEN_TRACE, "rb") as handle:
            assert on.read_bytes() == handle.read()


def _profiled_run(instructions=5_000, stride=64):
    sess = DebugSession(monitor="lvmm")
    program = assemble(
        f".org {firmware.GUEST_KERNEL_BASE}\n{GUEST_LOOP}\n")
    sess.load_and_boot(program)
    profiler = sess.monitor.attach_profiler(GuestProfiler(stride=stride))
    executed = sess.run_guest(instructions)
    sess.monitor.detach_profiler()
    cpu = sess.machine.cpu
    return {
        "executed": executed,
        "instret": cpu.instret,
        "cycles": cpu.cycle_count,
        "regs": cpu.regs[:],
        "samples": list(profiler.samples),
        "total_samples": profiler.total_samples,
    }


class TestMonitorRun:
    def test_profiler_samples_and_ledgers_are_invariant(
            self, monkeypatch):
        with_translation = _profiled_run()
        monkeypatch.setattr(Cpu, "TRANSLATE_DEFAULT", False)
        without = _profiled_run()
        assert with_translation == without
        assert with_translation["total_samples"] == 5_000 // 64

    def test_translation_actually_engaged(self):
        """Guard against this whole file passing vacuously."""
        sess = DebugSession(monitor="lvmm")
        program = assemble(
            f".org {firmware.GUEST_KERNEL_BASE}\n{GUEST_LOOP}\n")
        sess.load_and_boot(program)
        sess.run_guest(5_000)
        stats = sess.machine.cpu.block_cache_stats()
        assert stats["enabled"]
        assert stats["blocks_compiled"] >= 1
        assert stats["insns_translated"] > 0


#: A bare-metal guest: a hot ALU loop preempted by PIT ticks whose ISR
#: counts in memory and prints one byte to the debug UART.
BARE_TIMER_GUEST = f"""
.org {firmware.GUEST_KERNEL_BASE}
start:
    MOVI R1, {firmware.IDT_BASE}
    MOVI R0, timer_isr
    ST   [R1+{32 * 8}], R0
    MOVI R0, {firmware.IDX_CODE0 << 2}
    ST16 [R1+{32 * 8 + 4}], R0
    MOVI R0, 1
    ST16 [R1+{32 * 8 + 6}], R0
    MOVI R2, 0x20
    MOVI R0, 0x11
    OUTB R0, R2
    MOVI R2, 0x21
    MOVI R0, 32
    OUTB R0, R2
    MOVI R0, 0x04
    OUTB R0, R2
    MOVI R0, 0x01
    OUTB R0, R2
    MOVI R0, 0x00
    OUTB R0, R2
    MOVI R2, 0x43
    MOVI R0, 0x34
    OUTB R0, R2
    MOVI R2, 0x40
    MOVI R0, 3
    OUTB R0, R2
    MOVI R0, 0
    OUTB R0, R2
    STI
{GUEST_LOOP}
timer_isr:
    PUSH R0
    PUSH R2
    MOVI R2, 0x5000
    LD   R0, [R2+0]
    ADDI R0, 1
    ST   [R2+0], R0
    MOVI R2, 0x3F8
    MOVI R0, '*'
    OUTB R0, R2
    MOVI R2, 0x20
    MOVI R0, 0x20
    OUTB R0, R2
    POP  R2
    POP  R0
    IRET
"""


def _bare_timer_run(instructions=30_000):
    machine = Machine()
    runner = BareMetalRunner(machine)
    program = assemble(BARE_TIMER_GUEST)
    program.load_into(machine.memory)
    runner.boot_guest(program.origin)
    executed = runner.run(instructions)
    cpu = machine.cpu
    return {
        "executed": executed,
        "regs": cpu.regs[:],
        "pc": cpu.pc,
        "flags": cpu.flags,
        "instret": cpu.instret,
        "cycles": cpu.cycle_count,
        "memory": bytes(machine.memory.view()),
        "console": bytes(machine.serial_link.a_to_b),
    }, cpu.block_cache_stats()


class TestMachineRun:
    def test_bare_metal_timer_run_is_translation_invariant(
            self, monkeypatch):
        with_translation, stats = _bare_timer_run()
        assert stats["insns_translated"] > 0
        monkeypatch.setattr(Cpu, "TRANSLATE_DEFAULT", False)
        without, _ = _bare_timer_run()
        assert with_translation == without
        assert with_translation["console"].count(b"*") >= 5


class TestVerifyOnCompileDeterminism:
    """The translation validator's verify-on-compile mode must be as
    invisible as translation itself: with ``Cpu.VERIFY_DEFAULT`` forced
    on, both golden artifacts must still come out byte-identical."""

    def test_wild_writes_journal_matches_golden_with_verify_on(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(Cpu, "VERIFY_DEFAULT", True)
        recorded = _wild_writes_journal(tmp_path, "verify-on")
        with open(GOLDEN_JOURNAL, "rb") as handle:
            assert recorded == handle.read(), \
                "verify-on-compile perturbed the replay journal"

    def test_streaming_trace_matches_golden_with_verify_on(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(Cpu, "VERIFY_DEFAULT", True)
        out = tmp_path / "verify.json"
        assert trace_main(["record", "--scenario", "streaming",
                           "--seed", str(SEED), "--out",
                           str(out)]) == 0
        with open(GOLDEN_TRACE, "rb") as handle:
            assert out.read_bytes() == handle.read()

    def test_verification_actually_engaged(self, monkeypatch):
        """Guard against the golden checks passing vacuously."""
        monkeypatch.setattr(Cpu, "VERIFY_DEFAULT", True)
        sess = DebugSession(monitor="lvmm")
        program = assemble(
            f".org {firmware.GUEST_KERNEL_BASE}\n{GUEST_LOOP}\n")
        sess.load_and_boot(program)
        sess.run_guest(5_000)
        stats = sess.machine.cpu._sb_engine.tv_stats()
        assert stats["enabled"]
        assert stats["validated"] >= 1
        assert stats["rejected"] == 0
        assert sess.machine.cpu.block_cache_stats()["entries"] >= 1


class TestMonitorTvCommand:
    def _session(self):
        sess = DebugSession(monitor="lvmm")
        program = assemble(
            f".org {firmware.GUEST_KERNEL_BASE}\n{GUEST_LOOP}\n")
        sess.load_and_boot(program)
        return sess

    def test_status_toggle_and_counts(self):
        sess = self._session()
        monitor = sess.monitor
        assert "translation validation: off" in \
            monitor.monitor_command("tv")
        assert "enabled" in monitor.monitor_command("tv on")
        sess.run_guest(5_000)
        status = monitor.monitor_command("tv")
        assert "translation validation: on" in status
        assert "blocks validated" in status
        assert sess.machine.cpu._sb_engine.tv_validated >= 1
        assert "disabled" in monitor.monitor_command("tv off")
        assert "unknown tv subcommand" in \
            monitor.monitor_command("tv bogus")
        assert "tv" in monitor.monitor_command("help")

    def test_tv_on_matches_tv_off_architecturally(self):
        ledgers = []
        for enable in (False, True):
            sess = self._session()
            if enable:
                sess.monitor.monitor_command("tv on")
            sess.run_guest(20_000)
            cpu = sess.machine.cpu
            ledgers.append((cpu.instret, cpu.cycle_count, cpu.regs[:],
                            cpu.pc, cpu.flags))
        assert ledgers[0] == ledgers[1]

    def test_qrcmd_roundtrip_over_rsp(self):
        sess = self._session()
        sess.attach()
        reply = sess.client.monitor_command("tv")
        assert "translation validation" in reply


class TestMonitorJitCommand:
    def _session(self):
        sess = DebugSession(monitor="lvmm")
        program = assemble(
            f".org {firmware.GUEST_KERNEL_BASE}\n{GUEST_LOOP}\n")
        sess.load_and_boot(program)
        return sess

    def test_status_stats_and_toggle(self):
        sess = self._session()
        monitor = sess.monitor
        sess.run_guest(5_000)
        status = monitor.monitor_command("jit")
        assert "superblock translation: on" in status
        assert "compiled" in status
        stats = monitor.monitor_command("stats")
        assert "block cache:" in stats

        reply = monitor.monitor_command("jit off")
        assert "disabled" in reply
        assert sess.machine.cpu.block_cache_stats()["entries"] == 0
        sess.run_guest(5_000)
        status = monitor.monitor_command("jit")
        assert "superblock translation: off" in status

        assert "enabled" in monitor.monitor_command("jit on")
        sess.run_guest(5_000)
        assert sess.machine.cpu.block_cache_stats()["entries"] >= 1
        assert "flushed" in monitor.monitor_command("jit flush")
        assert sess.machine.cpu.block_cache_stats()["entries"] == 0

    def test_jit_off_matches_jit_on_architecturally(self):
        ledgers = []
        for disable in (False, True):
            sess = self._session()
            if disable:
                sess.monitor.monitor_command("jit off")
            sess.run_guest(20_000)
            cpu = sess.machine.cpu
            ledgers.append((cpu.instret, cpu.cycle_count, cpu.regs[:],
                            cpu.pc, cpu.flags))
        assert ledgers[0] == ledgers[1]

    def test_unknown_subcommand_and_help(self):
        sess = self._session()
        assert "unknown jit subcommand" in \
            sess.monitor.monitor_command("jit bogus")
        assert "jit" in sess.monitor.monitor_command("help")

    def test_qrcmd_roundtrip_over_rsp(self):
        sess = self._session()
        sess.attach()
        reply = sess.client.monitor_command("jit")
        assert "superblock translation" in reply
