"""Unit tests for qRcmd / monitor commands and the monitor event ring."""

import ast
import os
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.vmm.monitor
from repro.core import DebugSession
from repro.errors import ProtocolError
from repro.guest import KernelConfig, build_kernel

#: Every qRcmd reply for the ``session`` fixture stopped at
#: ``timer_isr``, as the client receives it.  ``trace 8`` shows the boot
#: traps, the first timer IRQ and its reflection, then the breakpoint
#: stop.  Plain ``net`` is absent: it reads the process-global registry.
PINNED_REPLIES = {
    "stats": (
        "traps emulated: 19 (HLT=1, LGDT=1, LIDT=1, LTSS=1, MOVSEG=1, "
        "OUTB=13, STI=1)\n"
        "interrupts fielded/reflected: 1/1\n"
        "exceptions reflected: 0\n"
        "vmcalls: 0, debug stops: 1\n"
        "decode cache: hits=0 misses=137 hit-rate=0.000 invalidations=0\n"
        "block cache: blocks=0 hits=0 guard-fails=0 hit-rate=0.000\n"
        "tlb: hits=0 misses=0 hit-rate=0.000\n"
        "guest dead: False \n"),
    "console": "(console empty)\n",
    "trace 8": """\
[    14] cyc=162          pc=0x002002c2 trap     OUTB R0, R2
[    15] cyc=164          pc=0x002002d0 trap     OUTB R0, R2
[    16] cyc=165          pc=0x002002d8 trap     OUTB R0, R2
[    17] cyc=165          pc=0x002002da trap     STI
[    18] cyc=171          pc=0x002002f7 trap     HLT
[    19] cyc=12600355     pc=0x002002f8 irq      irq=0 vector=32
[    20] cyc=12600355     pc=0x002002f8 reflect  vector=32
[    21] cyc=12600395     pc=0x00200311 debug    stop signal=5
""",
    "shadow": (
        "vif=False halted=False\n"
        "idtr=0x2000/0x800 gdtr=0x1000/0x54\n"
        "cr0=0x0 cr3=0x0\n"
        "virtual pic: {'master': {'irr': 0, 'isr': 1, 'imr': 0, "
        "'base': 32}, 'slave': {'irr': 0, 'isr': 0, 'imr': 0, "
        "'base': 40}}\n"),
    "hang": (
        "instructions retired: 123 (+123 since last check)\n"
        "pc=0x00200311 halted=False vif=False\n"
        "guest executing with virtual IF clear — a long critical "
        "section or an interrupt-off spin\n"),
    "watchdog": "level: full-service\n(no watchdog attached)\n",
    "fleet": "fleet: not a fleet worker\n",
    "record": "recording: off (no flight recorder attached)\n",
    "replay": "replay: off (not driven by a replayer)\n",
    "jit": (
        "superblock translation: on\n"
        "blocks: 0 live, 0 compiled, 0 invalidations\n"
        "dispatch: 0 block entries, 0 guard failures\n"
        "translated: 0 instructions (hit-rate 0.000)\n"),
    "tv": "translation validation: off\nblocks validated: 0, rejected: 0\n",
    "net bogus": "unknown net subcommand 'bogus' (try 'help')\n",
    "trace status": "structured trace not running ('monitor trace start')\n",
    "help": (
        "monitor commands: stats console trace [n] shadow hang watchdog "
        "fleet record [checkpoint] replay jit tv net help\n"
        "structured trace: trace start [stride] | stop | dump [n] | "
        "status\n"
        "superblocks: jit [on|off|flush]\n"
        "translation validation: tv [on|off]\n"
        "network: net [tcp|rx|all]\n"),
    "frobnicate": "unknown monitor command 'frobnicate' (try 'help')\n",
}


@pytest.fixture
def session():
    sess = DebugSession(monitor="lvmm")
    kernel = build_kernel(KernelConfig(ticks_to_run=4))
    sess.load_and_boot(kernel)
    sess.attach()
    return sess, kernel


def _record_two_events(monitor):
    """Append a trap then a reflection to ``monitor``'s event ring."""
    cpu = monitor.machine.cpu
    cpu.cycle_count, cpu.pc = 10, 0x100
    monitor._trace_event("trap", "CLI")
    cpu.cycle_count, cpu.pc = 20, 0x200
    monitor._trace_event("reflect", "vector=32")


class TestTraceBuffer:
    def test_records_in_sequence(self):
        monitor = DebugSession(monitor="lvmm").monitor
        _record_two_events(monitor)
        events = monitor.trace.tail()
        assert [e.seq for e in events] == [0, 1]
        assert events[0].name == "trap"
        assert events[1].cycle == 20
        assert [e.pc for e in events] == [0x100, 0x200]

    def test_format(self):
        monitor = DebugSession(monitor="lvmm").monitor
        assert monitor.monitor_command("trace") == "(trace empty)"
        _record_two_events(monitor)
        assert monitor.monitor_command("trace") == (
            "[     0] cyc=10           pc=0x00000100 trap     CLI\n"
            "[     1] cyc=20           pc=0x00000200 reflect  vector=32")


class TestMonitorCommands:
    def test_stats_via_rsp(self, session):
        sess, kernel = session
        sess.client.set_breakpoint(kernel.symbol("timer_isr"))
        sess.client.cont()
        output = sess.client.monitor_command("stats")
        assert "traps emulated" in output
        assert "interrupts fielded/reflected" in output

    def test_trace_via_rsp(self, session):
        sess, kernel = session
        sess.client.set_breakpoint(kernel.symbol("timer_isr"))
        sess.client.cont()
        output = sess.client.monitor_command("trace 64")
        assert "LGDT" in output        # boot traps visible
        assert "reflect" in output     # the timer reflection visible
        assert "debug" in output       # and the stop itself

    def test_shadow_via_rsp(self, session):
        sess, _ = session
        output = sess.client.monitor_command("shadow")
        assert "vif=" in output
        assert "idtr=" in output

    def test_console_via_rsp(self, session):
        sess, _ = session
        sess.monitor.console.extend(b"hello")
        assert "hello" in sess.client.monitor_command("console")

    def test_help_and_unknown(self, session):
        sess, _ = session
        assert "monitor commands" in sess.client.monitor_command("help")
        assert "unknown" in sess.client.monitor_command("frobnicate")

    @pytest.mark.parametrize("command", sorted(PINNED_REPLIES),
                             ids=lambda command: command.replace(" ", "-"))
    def test_reply_text_is_pinned(self, session, command):
        sess, kernel = session
        sess.client.set_breakpoint(kernel.symbol("timer_isr"))
        sess.client.cont()
        assert sess.client.monitor_command(command) \
            == PINNED_REPLIES[command]

    def test_trace_zero_returns_no_events(self, session):
        sess, kernel = session
        sess.client.set_breakpoint(kernel.symbol("timer_isr"))
        sess.client.cont()
        assert sess.client.monitor_command("trace 0") == "(trace empty)\n"
        assert sess.client.monitor_command("trace -3") == "(trace empty)\n"
        sess.client.monitor_command("trace start")
        assert sess.client.monitor_command("trace dump 0") \
            == "(structured trace empty)\n"

    def test_failed_trace_start_leaves_no_subscriber(self, session):
        sess, _ = session
        monitor = sess.monitor
        for _ in range(3):
            with pytest.raises(ProtocolError):
                sess.client.monitor_command("trace start 0")
        assert not monitor.trace.taps
        assert not monitor.record_taps
        assert monitor.obs_tracer is None and monitor.profiler is None
        assert "stride 8" in sess.client.monitor_command("trace start 8")
        assert monitor.trace.taps and monitor.record_taps

    def test_trace_count_argument(self, session):
        sess, kernel = session
        sess.client.set_breakpoint(kernel.symbol("timer_isr"))
        sess.client.cont()
        short = sess.client.monitor_command("trace 2")
        assert len(short.strip().splitlines()) == 2

    def test_rcmd_unsupported_target_gets_empty(self):
        """A stub whose target lacks monitor_command replies empty
        (the GDB 'not supported' convention)."""
        from repro.hw import Cpu, IoBus, PhysicalMemory
        from repro.hw import firmware
        from repro.rsp.packets import PacketDecoder, frame
        from repro.rsp.stub import DebugStub
        from repro.rsp.target import CpuTargetAdapter

        cpu = Cpu(PhysicalMemory(1 << 20), IoBus())
        firmware.install_flat_firmware(cpu)
        sent = bytearray()
        stub = DebugStub(CpuTargetAdapter(cpu), send_bytes=sent.extend)
        stub.feed(frame(b"qRcmd," + b"stats".hex().encode()))
        decoder = PacketDecoder()
        decoder.feed(bytes(sent))
        assert decoder.next_packet() == b""


class TestHangDiagnosis:
    def _session_with(self, body):
        from repro.asm import assemble
        from repro.hw import firmware
        sess = DebugSession(monitor="lvmm")
        program = assemble(f".org {firmware.GUEST_KERNEL_BASE}\n{body}\n")
        sess.load_and_boot(program)
        sess.attach()
        return sess

    def test_cli_spin_diagnosed(self):
        sess = self._session_with("CLI\nspin:\nNOP\nJMP spin\n")
        sess.monitor.resume_guest(step=False)
        sess.monitor.run(2_000)
        sess.monitor.stopped = True
        report = sess.client.monitor_command("hang")
        assert "virtual IF clear" in report

    def test_dead_idle_diagnosed(self):
        sess = self._session_with("CLI\nHLT\n")
        sess.monitor.resume_guest(step=False)
        sess.monitor.run(2_000)
        report = sess.client.monitor_command("hang")
        assert "can never wake" in report

    def test_healthy_guest_diagnosed(self):
        from repro.guest import KernelConfig, build_kernel
        sess = DebugSession(monitor="lvmm")
        # A large tick target keeps the guest healthily idle (HLT with
        # virtual IF on) when we stop to ask.
        sess.load_and_boot(build_kernel(KernelConfig(ticks_to_run=5000)))
        sess.attach()
        sess.monitor.resume_guest(step=False)
        sess.monitor.run(5_000)
        sess.monitor.stopped = True
        report = sess.client.monitor_command("hang")
        assert "instructions retired" in report
        assert "dead" not in report.splitlines()[-1]

    def test_progress_counter_advances(self):
        sess = self._session_with("spin:\nNOP\nJMP spin\n")
        first = sess.client.monitor_command("hang")
        sess.monitor.resume_guest(step=False)
        sess.monitor.run(500)
        sess.monitor.stopped = True
        second = sess.client.monitor_command("hang")
        assert "+" in first
        import re
        delta = int(re.search(r"\(\+(\d+) since", second).group(1))
        assert delta > 400  # the spin definitely made progress


class TestNetMonitorCommand:
    def test_net_lists_tcp_metrics_after_a_streaming_run(self, session):
        from repro.obs.metrics import collect_net
        from repro.workloads.streaming import (mixed_rate_specs,
                                               run_tcp_streaming)
        sess, _ = session
        result = run_tcp_streaming(mixed_rate_specs(2, bytes_total=2_000),
                                   sim_seconds=0.05, grace_seconds=0.3)
        collect_net(result=result)          # publish to global registry
        output = sess.client.monitor_command("net tcp")
        assert "net.tcp.segments_sent" in output
        assert "net.tcp.retransmits" in output
        # Scope filter: the rx view never shows tcp metrics.
        assert "net.tcp." not in sess.client.monitor_command("net rx")

    def test_net_rejects_unknown_subcommand(self, session):
        sess, _ = session
        output = sess.client.monitor_command("net bogus")
        assert "unknown net subcommand" in output

    def test_net_in_help(self, session):
        sess, _ = session
        assert "net" in sess.client.monitor_command("help")


class TestMonitorBoundary:
    """The monitor core stays small: debugging services live in
    :mod:`repro.vmm.commands`, and a plain debug session loads none of
    the fleet, replay, fault or workload subsystems."""

    def test_monitor_core_imports_no_service_subsystem(self):
        with open(repro.vmm.monitor.__file__) as handle:
            tree = ast.parse(handle.read())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        forbidden = ("repro.obs.tracer", "repro.obs.metrics",
                     "repro.interp", "repro.net", "repro.replay",
                     "repro.fleet")
        assert not {name for name in imported
                    if any(name == f or name.startswith(f + ".")
                           for f in forbidden)}

    def test_debug_session_loads_no_heavy_subsystem(self):
        script = textwrap.dedent("""
            import sys
            from repro.core import DebugSession
            from repro.guest import KernelConfig, build_kernel
            sess = DebugSession(monitor="lvmm")
            sess.load_and_boot(build_kernel(KernelConfig(ticks_to_run=4)))
            sess.attach()
            assert "monitor commands" in sess.client.monitor_command("help")
            heavy = ("repro.fleet", "repro.replay", "repro.faults",
                     "repro.workloads")
            print(sorted(name for name in sys.modules
                         if name.startswith(heavy)))
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"
