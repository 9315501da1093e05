"""The translation validator: zero false positives on correct blocks,
structure/equivalence rejections on broken ones, and the verify-on-
compile mode that turns it into a runtime safety net."""

import pytest

from repro.analysis.tv.mutate import FIXTURE_SOURCE, _compile_fixture
from repro.analysis.tv.offline import (
    backward_targets,
    validate_image,
    validate_program,
    validate_random,
)
from repro.analysis.tv.validator import TvResult, validate_block
from repro.asm import assemble
from repro.hw import Cpu, IoBus, PhysicalMemory, firmware
from repro.obs.metrics import MetricsRegistry, collect_tv

ORIGIN = 0x4000

HOT_LOOP = """
    MOVI R0, 500
loop:
    ADDI R1, 3
    XORI R2, 0x55
    CMPI R1, 900
    SUBI R0, 1
    JNZ  loop
    HLT
"""


def make_cpu(**kwargs):
    cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=True,
              **kwargs)
    firmware.install_flat_firmware(cpu)
    return cpu


def load(cpu, source, origin=ORIGIN):
    program = assemble(source, origin=origin)
    program.load_into(cpu.memory)
    cpu.pc = origin
    return program


class TestValidatorOnCorrectBlocks:
    def test_fixture_block_validates(self):
        meta, block, page_gens = _compile_fixture()
        result = validate_block(meta, block=block, page_gens=page_gens)
        assert result.ok, result.failures
        assert result.insns == len(meta.insns)
        assert result.events > 0

    def test_correct_blocks_prove_syntactically(self):
        """The reference semantics share the translator's algebraic
        shape, so a correct block needs no concrete fallback."""
        meta, block, page_gens = _compile_fixture()
        result = validate_block(meta, block=block, page_gens=page_gens)
        assert result.proofs["syntactic"] > 0
        assert result.proofs["concrete"] == 0

    def test_offline_image_validation(self):
        program = assemble(HOT_LOOP, origin=ORIGIN)
        report = validate_program(program)
        assert report.ok
        assert len(report.results) == 1
        assert not report.refused
        assert "0 failed" in report.format_text()

    def test_backward_targets_finds_the_loop(self):
        program = assemble(HOT_LOOP, origin=ORIGIN)
        targets = backward_targets(program.image, program.origin)
        assert targets == [program.symbol("loop")]

    def test_random_programs_have_zero_false_positives(self):
        for report in validate_random(15):
            assert report.ok, report.format_text()

    def test_dropped_flag_writes_prove_syntactically(self):
        """XORI's, ADDI's and CMPI's formulas are dead (the SUBI
        overwrites them before anything observes FLAGS), so the block
        never computes them while the reference chain does."""
        report = validate_program(assemble("""
            MOVI R0, 50
        loop:
            XORI R1, 0x55
            ADDI R1, 3
            CMPI R1, 900
            MOV  R2, R1
            SUBI R0, 1
            JNZ  loop
            HLT
        """, origin=ORIGIN))
        (result,) = report.results
        assert result.ok, report.format_text()
        assert result.proofs["concrete"] == 0


    def test_busy_loop_validates_in_counted_form(self):
        """The guest kernel's busy loop keeps R2 in a local, paces by a
        trip count and accounts its iterations at its two exits."""
        report = validate_program(assemble("""
            MOVI R2, 2000
        loop:
            SUBI R2, 1
            JNZ  loop
            HLT
        """, origin=ORIGIN))
        (result,) = report.results
        assert result.ok, report.format_text()
        assert result.proofs["concrete"] == 0
        cpu = make_cpu()
        program = load(cpu, "MOVI R2, 2000\nloop:\nSUBI R2, 1\n"
                            "JNZ loop\nHLT")
        cpu.run(100)
        source = cpu._sb_engine.block_meta[program.symbol("loop")].source
        for line in ("r2 = regs[2]", "if k == n:", "ir += 2 * k"):
            assert line in source
        assert source.count("regs[2] = r2") == 2


class TestValidatorRejections:
    def _fixture(self):
        meta, block, page_gens = _compile_fixture()
        return meta, block, page_gens

    def test_unrecognizable_source_is_a_structure_failure(self):
        from dataclasses import replace
        meta, block, page_gens = self._fixture()
        broken = replace(meta, source="def _factory(*a):\n"
                                      "    def _block(cpu):\n"
                                      "        cpu.pc = 0\n"
                                      "    return _block\n")
        result = validate_block(broken, block=block,
                                page_gens=page_gens)
        assert not result.ok
        assert any("structure" in f or "events" in f
                   for f in result.failures)

    def test_dropped_commit_barrier_is_killed(self):
        from dataclasses import replace
        meta, block, page_gens = self._fixture()
        broken = replace(
            meta, source=meta.source.replace(
                "                cpu.flags = f\n", "", 1))
        result = validate_block(broken, block=block,
                                page_gens=page_gens)
        assert not result.ok

    def test_stale_generation_guard_is_killed(self):
        meta, block, page_gens = self._fixture()
        tampered = block[:6] + (block[6] + 1,)
        result = validate_block(meta, block=tampered,
                                page_gens=page_gens)
        assert not result.ok
        assert any("generation" in f for f in result.failures)


class TestVerifyOnCompile:
    def test_validates_blocks_at_translation_time(self):
        cpu = make_cpu(verify_translations=True)
        load(cpu, HOT_LOOP)
        cpu.run(100_000)
        assert cpu.halted
        stats = cpu._sb_engine.tv_stats()
        assert stats["enabled"]
        assert stats["validated"] >= 1
        assert stats["rejected"] == 0
        assert stats["failures"] == []
        assert cpu.block_cache_stats()["blocks_compiled"] >= 1

    def test_verify_is_architecturally_invisible(self):
        ledgers = []
        for kwargs in ({"verify_translations": True},
                       {"translate": False}):
            cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), **{
                "translate": True, **kwargs})
            firmware.install_flat_firmware(cpu)
            load(cpu, HOT_LOOP)
            cpu.run(100_000)
            ledgers.append((cpu.regs[:], cpu.flags, cpu.pc,
                            cpu.instret, cpu.cycle_count))
        assert ledgers[0] == ledgers[1]

    def test_rejected_block_falls_back_to_interpreter(self, monkeypatch):
        """A validation failure must refuse the block, count it, and
        leave execution on the (correct) decode-cache path."""
        import repro.analysis.tv.validator as validator_module

        def always_fail(meta, block=None, page_gens=None):
            return TvResult(ok=False, entry_lin=meta.entry_lin,
                            entry_pc=meta.entry_pc,
                            insns=len(meta.insns), events=0,
                            failures=["synthetic miscompile"])

        monkeypatch.setattr(validator_module, "validate_block",
                            always_fail)
        cpu = make_cpu(verify_translations=True)
        load(cpu, HOT_LOOP)
        cpu.run(100_000)
        assert cpu.halted
        stats = cpu._sb_engine.tv_stats()
        assert stats["rejected"] >= 1
        assert any("synthetic miscompile" in f
                   for f in stats["failures"])
        assert cpu.block_cache_stats()["entries"] == 0

        plain = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=False)
        firmware.install_flat_firmware(plain)
        load(plain, HOT_LOOP)
        plain.run(100_000)
        assert cpu.regs == plain.regs
        assert cpu.instret == plain.instret
        assert cpu.cycle_count == plain.cycle_count

    def test_verify_default_class_attr(self, monkeypatch):
        monkeypatch.setattr(Cpu, "VERIFY_DEFAULT", True)
        cpu = make_cpu()
        assert cpu._sb_engine.verify
        explicit = make_cpu(verify_translations=False)
        assert not explicit._sb_engine.verify


class TestCollectTv:
    def test_gauges_published(self):
        cpu = make_cpu(verify_translations=True)
        load(cpu, HOT_LOOP)
        cpu.run(100_000)
        registry = MetricsRegistry()
        stats = collect_tv(cpu, registry)
        assert stats == cpu._sb_engine.tv_stats()
        assert registry.get("analysis.tv.enabled").value == 1
        assert registry.get("analysis.tv.validated").value \
            == stats["validated"]
        assert registry.get("analysis.tv.rejected").value == 0

    def test_without_engine(self):
        cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=False)
        registry = MetricsRegistry()
        stats = collect_tv(cpu, registry)
        assert stats["enabled"] is False
        assert stats["validated"] == 0


class TestFixtureCoverage:
    def test_fixture_exercises_every_structural_feature(self):
        """The mutation harness is only as strong as its fixture."""
        meta, _block, _gens = _compile_fixture()
        mnemonics = {spec.mnemonic for _, spec, _ in meta.insns}
        assert "LD" in mnemonics, "fixture needs an IRQ-exit load"
        assert "ST" in mnemonics, "fixture needs an SMC-exit store"
        assert "JNZ" in mnemonics, "fixture needs a conditional edge"
        assert "loop" in FIXTURE_SOURCE
