"""End-to-end observability: live tracing over a debug session, the
``monitor trace`` qRcmds, the ``repro-trace`` CLI, the golden trace,
and the recorder-coexistence regression (journals are byte-identical
with and without a tracer attached)."""

import json
import os

import pytest

from repro.asm import assemble
from repro.core.session import DebugSession
from repro.hw import firmware
from repro.obs.bus import TraceBus
from repro.obs.cli import main as trace_main
from repro.obs.cli import record_guest, record_streaming
from repro.obs.exporters import validate_chrome_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import GuestProfiler
from repro.obs.tracer import Tracer
from repro.replay import FlightRecorder

SEED = 1234
GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden",
                      "trace_streaming_seed1234.json")

GUEST_LOOP = """
loop:
    NOP
    ADDI R1, 1
    JMP  loop
"""


def _session(program_body: str = GUEST_LOOP) -> DebugSession:
    sess = DebugSession(monitor="lvmm")
    program = assemble(
        f".org {firmware.GUEST_KERNEL_BASE}\n{program_body}\n")
    sess.load_and_boot(program)
    return sess


class TestLiveTracing:
    def test_tracer_observes_a_debug_session(self):
        sess = _session()
        tracer = Tracer(TraceBus(), MetricsRegistry())
        tracer.attach(monitor=sess.monitor)
        sess.attach()
        sess.run_guest(2_000)
        tracer.detach()
        counts = tracer.bus.counts_by_category()
        assert counts.get("rsp", 0) >= 2      # the attach handshake
        assert counts.get("device", 0) > 0    # uart bytes
        assert counts.get("monitor", 0) >= 2  # run begin/end span
        registry = tracer.registry
        assert registry.counter("trace.monitor.run_slices").value >= 1

    def test_double_attach_rejected_and_detach_idempotent(self):
        sess = _session()
        tracer = Tracer(TraceBus(), MetricsRegistry())
        tracer.attach(monitor=sess.monitor)
        with pytest.raises(RuntimeError):
            tracer.attach(monitor=sess.monitor)
        tracer.detach()
        tracer.detach()
        assert not tracer.bus.enabled

    def test_profiler_samples_during_run(self):
        sess = _session()
        profiler = sess.monitor.attach_profiler(GuestProfiler(stride=64))
        sess.run_guest(1_000)
        sess.monitor.detach_profiler()
        assert profiler.total_samples == 1_000 // 64
        pcs = {pc for pc, _ring, _reason in profiler.samples}
        base = firmware.GUEST_KERNEL_BASE
        assert all(base <= pc < base + 0x40 for pc in pcs)

    def test_detached_session_has_no_observers(self):
        sess = _session()
        tracer = Tracer(TraceBus(), MetricsRegistry())
        tracer.attach(monitor=sess.monitor)
        tracer.detach()
        machine = sess.machine
        for tap in (machine.serial_link.taps, machine.pic.raise_taps,
                    machine.bus.access_taps, sess.monitor.record_taps,
                    sess.monitor.trace.taps):
            assert len(tap) == 0


class TestMonitorTraceCommand:
    def test_trace_start_status_dump_stop(self):
        sess = _session()
        monitor = sess.monitor
        reply = monitor.monitor_command("trace start 128")
        assert "stride 128" in reply
        assert "already running" in monitor.monitor_command(
            "trace start")
        sess.run_guest(1_000)
        status = monitor.monitor_command("trace status")
        assert "structured trace: on" in status
        assert "profiler:" in status
        dump = monitor.monitor_command("trace dump 5")
        assert len(dump.splitlines()) <= 5
        stop = monitor.monitor_command("trace stop")
        assert "structured trace stopped" in stop
        assert monitor.obs_tracer is None and monitor.profiler is None
        assert "not running" in monitor.monitor_command("trace status")

    def test_legacy_trace_tail_still_works(self):
        sess = _session()
        sess.run_guest(500)
        reply = sess.monitor.monitor_command("trace 4")
        assert "structured" not in reply

    def test_qrcmd_roundtrip_over_rsp(self):
        sess = _session()
        sess.attach()
        reply = sess.client.monitor_command("trace start")
        assert "structured trace started" in reply
        reply = sess.client.monitor_command("trace stop")
        assert "structured trace stopped" in reply


class TestRecorderCoexistence:
    """Satellite regression: attaching a tracer must not perturb the
    flight recorder — journals stay byte-identical whichever of the two
    subscribes to the shared tap points first."""

    def _journal_bytes(self, tracer_first=None) -> bytes:
        sess = DebugSession(monitor="lvmm")
        program = assemble(
            f".org {firmware.GUEST_KERNEL_BASE}\n{GUEST_LOOP}\n")
        tracer = None
        if tracer_first is not None:
            tracer = Tracer(TraceBus(), MetricsRegistry())
        if tracer_first:
            tracer.attach(monitor=sess.monitor)
        recorder = FlightRecorder(sess.machine, sess.monitor,
                                  program=program,
                                  scenario="obs-coexist", seed=SEED)
        if tracer_first is False:
            tracer.attach(monitor=sess.monitor, recorder=recorder)
        sess.load_and_boot(program)
        sess.attach()
        sess.run_guest(3_000)
        journal = recorder.finish()
        if tracer is not None:
            assert tracer.bus.total_recorded > 0
            tracer.detach()
        return journal.to_bytes()

    @pytest.mark.parametrize("tracer_first", [False, True],
                             ids=["recorder-first", "tracer-first"])
    def test_journal_identical_with_tracing_enabled(self, tracer_first):
        assert self._journal_bytes() == self._journal_bytes(tracer_first)


class TestCliAndGolden:
    def test_record_report_export_top_roundtrip(self, tmp_path,
                                                capsys):
        trace = tmp_path / "guest.json"
        assert trace_main(["record", "--scenario", "guest",
                           "--stride", "256",
                           "--instructions", "20000",
                           "--out", str(trace)]) == 0
        assert trace_main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "schema: ok" in out

        collapsed = tmp_path / "stacks.txt"
        metrics = tmp_path / "metrics.json"
        assert trace_main(["export", str(trace),
                           "--collapsed", str(collapsed),
                           "--metrics", str(metrics)]) == 0
        assert collapsed.read_text().strip()
        assert json.loads(metrics.read_text())["format"] \
            == "repro-metrics-v1"

        assert trace_main(["top", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "guest PC profile" in out
        # symbolized: at least one known kernel/user label in the table
        assert any(name in out for name in
                   ("user_loop", "syscall_entry", "idle", "start"))

    def test_top_refuses_profileless_trace(self, tmp_path, capsys):
        trace = tmp_path / "stream.json"
        assert trace_main(["record", "--scenario", "streaming",
                           "--sim-seconds", "0.002",
                           "--out", str(trace)]) == 0
        assert trace_main(["top", str(trace)]) == 1

    def test_streaming_document_validates_and_has_all_categories(self):
        document = record_streaming(seed=SEED)
        assert validate_chrome_trace(document) == []
        categories = {event.get("cat") for event
                      in document["traceEvents"]
                      if event["ph"] != "M"}
        assert {"trap", "irq", "device", "rsp", "fault"} <= categories

    def test_guest_document_embeds_profile_and_metrics(self):
        document = record_guest(stride=512, instructions=20_000)
        assert validate_chrome_trace(document) == []
        assert document["guestProfile"]["total_samples"] > 0
        assert any(name.startswith("trace.")
                   for name in document["metrics"])

    def test_golden_trace_matches(self, tmp_path):
        """Two runs, same seed -> byte-identical Perfetto trace."""
        out = tmp_path / "trace.json"
        assert trace_main(["record", "--scenario", "streaming",
                           "--seed", str(SEED),
                           "--out", str(out)]) == 0
        with open(GOLDEN, "rb") as handle:
            golden = handle.read()
        assert out.read_bytes() == golden, \
            "streaming trace diverged from the golden file; if the " \
            "change is intentional regenerate it with: repro-trace " \
            "record --scenario streaming --out " \
            "tests/golden/trace_streaming_seed1234.json"
