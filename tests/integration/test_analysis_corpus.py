"""The static analyzer over the real guest corpus.

Shipped kernels must analyze clean (zero error findings); variants with
deliberately seeded bugs must each be flagged by the right check; and
the monitor's load-time gate must warn by default and refuse when
strict.
"""

import pytest

from repro.analysis import SEV_ERROR, analyze_image, analyze_program
from repro.asm.assembler import assemble
from repro.guest import asmkernel, asmthreads
from repro.guest.asmkernel import KernelConfig, build_kernel, build_user_task
from repro.hw import firmware
from repro.hw.machine import Machine
from repro.vmm import (
    GuestImageRejected,
    GuestImageWarning,
    Monitor,
)

MONITOR_BASE = firmware.monitor_base(16 << 20)


def error_checks(report):
    return {f.check for f in report.findings if f.severity == SEV_ERROR}


# ---------------------------------------------------------------------------
# Shipped images analyze clean
# ---------------------------------------------------------------------------

class TestShippedImagesClean:
    @pytest.mark.parametrize("config", [
        KernelConfig(),
        KernelConfig(with_user_task=True),
        KernelConfig(with_paging=True),
    ], ids=["plain", "user-task", "paging"])
    def test_kernel_has_zero_errors(self, config):
        report = analyze_program(build_kernel(config),
                                 monitor_base=MONITOR_BASE)
        assert report.errors == [], report.format_text()

    def test_user_task_has_zero_errors(self):
        report = analyze_program(build_user_task(),
                                 monitor_base=MONITOR_BASE,
                                 entry_ring=3)
        assert report.errors == [], report.format_text()

    @pytest.mark.parametrize("preemptive", [False, True],
                             ids=["cooperative", "preemptive"])
    def test_threaded_kernel_has_zero_errors(self, preemptive):
        program = assemble(
            asmthreads.threaded_kernel_source(preemptive=preemptive))
        report = analyze_program(program, monitor_base=MONITOR_BASE)
        assert report.errors == [], report.format_text()

    def test_kernel_handlers_discovered(self):
        report = analyze_program(build_kernel(),
                                 monitor_base=MONITOR_BASE)
        # timer, syscall, #GP, #PF, vmcall-noop
        assert report.stats["handler_vectors"] == 5

    def test_tv_audit_validates_shipped_superblocks(self):
        """The embedded translation-validation audit must actually
        compile and certify the kernel's hot-loop candidates — and
        find nothing (AN011 clean on shipped images)."""
        report = analyze_program(build_kernel(),
                                 monitor_base=MONITOR_BASE)
        assert report.stats["tv_blocks_checked"] >= 1
        assert "AN011" not in error_checks(report)

    def test_interprocedural_stats_on_shipped_kernel(self):
        report = analyze_program(build_kernel(),
                                 monitor_base=MONITOR_BASE)
        assert report.stats["functions"] \
            == report.stats["balanced_functions"]


# ---------------------------------------------------------------------------
# Seeded-bug variants are flagged
# ---------------------------------------------------------------------------

def seeded_kernel(old: str, new: str, config=KernelConfig()):
    source = asmkernel.kernel_source(config)
    assert source.count(old) == 1, f"seed anchor {old!r} not unique"
    return assemble(source.replace(old, new))


class TestSeededBugs:
    def test_store_into_monitor_flagged(self):
        program = seeded_kernel(
            "start:\n",
            "start:\n"
            f"    MOVI R6, {MONITOR_BASE + 0x40:#x}\n"
            "    ST   [R6+0], R0\n")
        report = analyze_program(program, monitor_base=MONITOR_BASE)
        assert "AN001" in error_checks(report), report.format_text()

    def test_handler_missing_iret_flagged(self):
        # The timer ISR returns with RET instead of IRET: interrupt
        # frames leak and the handler never restores FLAGS/CS.
        program = seeded_kernel(
            "    POP  R1\n    POP  R0\n    IRET",
            "    POP  R1\n    POP  R0\n    RET")
        report = analyze_program(program, monitor_base=MONITOR_BASE)
        assert "AN007" in error_checks(report), report.format_text()

    def test_privileged_insn_in_user_task_flagged(self):
        source = asmkernel.user_task_source()
        anchor = "user_start:\n"
        assert anchor in source
        program = assemble(source.replace(anchor, anchor + "    CLI\n"))
        report = analyze_program(program, monitor_base=MONITOR_BASE,
                                 entry_ring=3)
        assert "AN002" in error_checks(report), report.format_text()

    def test_cross_function_stack_imbalance_flagged(self):
        # A helper that pushes a word it never pops: its RET returns
        # to the pushed value, not the caller (AN012).
        program = seeded_kernel(
            "start:\n",
            "    JMP  an012_entry\n"
            "an012_helper:\n"
            "    PUSH R1\n"
            "    RET\n"
            "an012_entry:\n"
            "    CALL an012_helper\n"
            "start:\n")
        report = analyze_program(program, monitor_base=MONITOR_BASE)
        assert "AN012" in error_checks(report), report.format_text()

    def test_indirect_call_escape_flagged(self):
        # CALLR through a pointer that resolves outside the image.
        program = seeded_kernel(
            "start:\n",
            "start:\n"
            f"    MOVI R5, {MONITOR_BASE + 0x100:#x}\n"
            "    CALLR R5\n")
        report = analyze_program(program, monitor_base=MONITOR_BASE)
        assert "AN013" in error_checks(report), report.format_text()

    def test_miscompiled_translator_flagged_by_an011(self, monkeypatch):
        """Seed a realistic translator bug (ZF computed into the wrong
        bit) and demand the embedded tv audit catches it: a pristine
        translator never produces an invalid block, so AN011's trigger
        has to be a broken emitter, not a broken kernel."""
        from repro.interp import translate as translate_module
        original = translate_module._sub_lines

        def buggy(dest, a, b):
            return [line.replace("(64 if m == 0 else 0)",
                                 "(32 if m == 0 else 0)")
                    for line in original(dest, a, b)]

        monkeypatch.setattr(translate_module, "_sub_lines", buggy)
        report = analyze_program(build_kernel(),
                                 monitor_base=MONITOR_BASE)
        assert "AN011" in error_checks(report), report.format_text()


# ---------------------------------------------------------------------------
# The monitor's load-time gate
# ---------------------------------------------------------------------------

class TestLoadTimeGate:
    def _flagged_program(self):
        return seeded_kernel(
            "start:\n",
            "start:\n"
            f"    MOVI R6, {MONITOR_BASE + 0x40:#x}\n"
            "    ST   [R6+0], R0\n")

    def test_verify_image_reports(self):
        program = self._flagged_program()
        report = analyze_image(program.image, program.origin,
                               monitor_base=MONITOR_BASE)
        assert "AN001" in error_checks(report)

    def test_clean_image_loads_without_warning(self):
        monitor = Monitor(Machine())
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", GuestImageWarning)
            report = monitor.load_guest(build_kernel())
        assert report.clean
        assert monitor.last_verify_report is report

    def test_default_monitor_warns_and_boots_anyway(self):
        monitor = Monitor(Machine())
        program = self._flagged_program()
        with pytest.warns(GuestImageWarning, match="AN001"):
            report = monitor.load_guest(program)
        assert report.errors
        # The guest is booted regardless: surviving it at runtime is
        # the monitor's job.
        assert monitor.machine.cpu.pc == program.origin

    def test_strict_monitor_refuses(self):
        monitor = Monitor(Machine(), strict=True)
        with pytest.raises(GuestImageRejected) as excinfo:
            monitor.load_guest(self._flagged_program())
        assert "AN001" in str(excinfo.value)
        assert excinfo.value.report.errors

    def test_per_call_strict_override(self):
        monitor = Monitor(Machine())
        with pytest.raises(GuestImageRejected):
            monitor.load_guest(self._flagged_program(), strict=True)

    def test_loaded_guest_still_runs_to_done(self):
        monitor = Monitor(Machine())
        monitor.load_guest(build_kernel())
        monitor.run(400_000, until=lambda: asmkernel.read_state(
            monitor.machine.memory) != 0)
        assert asmkernel.read_state(monitor.machine.memory) == 1
