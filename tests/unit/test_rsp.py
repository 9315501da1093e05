"""Unit tests for the GDB remote serial protocol layer."""

import pytest

from repro.errors import ProtocolError
from repro.rsp import (
    CpuTargetAdapter,
    DebugStub,
    PacketDecoder,
    RspClient,
    checksum,
    escape,
    frame,
    unescape_and_expand,
)
from repro.rsp.target import TargetAdapter


class TestFraming:
    def test_frame_simple(self):
        assert frame(b"OK") == b"$OK#9a"

    def test_checksum_mod_256(self):
        assert checksum(b"\xff\xff\x03") == 1

    def test_escape_metacharacters(self):
        raw = b"a#b$c}d*e"
        escaped = escape(raw)
        assert b"#" not in escaped.replace(b"}\x03", b"")
        assert unescape_and_expand(escaped) == raw

    def test_rle_expansion(self):
        # "0* " means '0' repeated (ord(' ')-29)=3 more times -> "0000".
        assert unescape_and_expand(b"0* ") == b"0000"

    def test_rle_without_previous_byte_rejected(self):
        with pytest.raises(ProtocolError):
            unescape_and_expand(b"*!")

    def test_dangling_escape_rejected(self):
        with pytest.raises(ProtocolError):
            unescape_and_expand(b"ab}")


class TestPacketDecoder:
    def test_decode_valid_packet_acks(self):
        decoder = PacketDecoder()
        replies = decoder.feed(frame(b"g"))
        assert replies == b"+"
        assert decoder.next_packet() == b"g"

    def test_bad_checksum_naks(self):
        decoder = PacketDecoder()
        replies = decoder.feed(b"$g#00")
        assert replies == b"-"
        assert decoder.next_packet() is None

    def test_partial_packet_across_feeds(self):
        decoder = PacketDecoder()
        data = frame(b"m1000,10")
        assert decoder.feed(data[:4]) == b""
        assert decoder.feed(data[4:]) == b"+"
        assert decoder.next_packet() == b"m1000,10"

    def test_line_noise_ignored(self):
        decoder = PacketDecoder()
        decoder.feed(b"\x00\x01junk")
        assert decoder.next_packet() is None

    def test_interrupt_byte_counted(self):
        decoder = PacketDecoder()
        decoder.feed(b"\x03")
        assert decoder.interrupts == 1

    def test_acks_recorded(self):
        decoder = PacketDecoder()
        decoder.feed(b"+-+")
        assert (decoder.acks, decoder.naks) == (2, 1)

    def test_multiple_packets_one_feed(self):
        decoder = PacketDecoder()
        decoder.feed(frame(b"a") + frame(b"b"))
        assert decoder.next_packet() == b"a"
        assert decoder.next_packet() == b"b"


class _FakeTarget(TargetAdapter):
    """In-memory adapter for stub tests."""

    def __init__(self):
        self.regs = list(range(8)) + [0x4000, 0x202]
        self.memory = bytearray(0x10000)
        self.breakpoints = set()
        self.watchpoints = []
        self.resume_calls = []

    def read_registers(self):
        return list(self.regs)

    def write_register(self, index, value):
        self.regs[index] = value

    def read_memory(self, addr, length):
        if addr + length > len(self.memory):
            return None
        return bytes(self.memory[addr:addr + length])

    def write_memory(self, addr, data):
        if addr + len(data) > len(self.memory):
            return False
        self.memory[addr:addr + len(data)] = data
        return True

    def set_breakpoint(self, addr):
        self.breakpoints.add(addr)
        return True

    def clear_breakpoint(self, addr):
        self.breakpoints.discard(addr)
        return True

    def set_watchpoint(self, addr, length, kind):
        self.watchpoints.append((addr, length, kind))
        return True

    def clear_watchpoint(self, addr, length, kind):
        entry = (addr, length, kind)
        if entry in self.watchpoints:
            self.watchpoints.remove(entry)
            return True
        return False

    def resume(self, step):
        self.resume_calls.append("step" if step else "cont")


class StubHarness:
    """Wire a stub and a client together over in-memory pipes."""

    def __init__(self, target=None):
        self.target = target or _FakeTarget()
        self.to_host = bytearray()
        self.stub = DebugStub(self.target,
                              send_bytes=self.to_host.extend)
        self.client = RspClient(
            send=lambda data: self.stub.feed(data),
            recv=self._recv,
            pump=lambda: None,
            max_pumps=10)

    def _recv(self):
        data = bytes(self.to_host)
        self.to_host.clear()
        return data


class TestStubCommands:
    def test_host_acks_leave_no_state_in_the_stub(self):
        """The host's '+' after every reply is counted, not stored, so a
        long session does not grow the stub's decoder."""
        harness = StubHarness()
        for _ in range(200):
            harness.client.read_registers()
        decoder = harness.stub._decoder
        assert (decoder.acks, decoder.naks) == (200, 0)
        assert not [name for name, value in vars(decoder).items()
                    if isinstance(value, list) and value]

    def test_halt_reason(self):
        harness = StubHarness()
        assert harness.client.query_halt_reason() == 5  # SIGTRAP

    def test_read_registers(self):
        harness = StubHarness()
        values = harness.client.read_registers()
        assert values == list(range(8)) + [0x4000, 0x202]

    def test_write_registers(self):
        harness = StubHarness()
        new = [0x10 * i for i in range(10)]
        harness.client.write_registers(new)
        assert harness.target.regs == new

    def test_single_register_round_trip(self):
        harness = StubHarness()
        harness.client.write_register(3, 0xDEAD)
        assert harness.client.read_register(3) == 0xDEAD

    def test_memory_round_trip(self):
        harness = StubHarness()
        harness.client.write_memory(0x100, b"\x01\x02\x03\x04")
        assert harness.client.read_memory(0x100, 4) == b"\x01\x02\x03\x04"

    def test_memory_read_fault_reported(self):
        harness = StubHarness()
        with pytest.raises(ProtocolError):
            harness.client.read_memory(0x1000000, 4)

    def test_breakpoint_set_and_clear(self):
        harness = StubHarness()
        harness.client.set_breakpoint(0x4242)
        assert 0x4242 in harness.target.breakpoints
        harness.client.clear_breakpoint(0x4242)
        assert 0x4242 not in harness.target.breakpoints

    def test_watchpoint_set_and_clear(self):
        harness = StubHarness()
        harness.client.set_watchpoint(0x9000, 4, on_write=True)
        assert ("watch" in harness.target.watchpoints[0][2])
        harness.client.clear_watchpoint(0x9000, 4, on_write=True)
        assert not harness.target.watchpoints

    def test_continue_resumes_target(self):
        harness = StubHarness()
        harness.client.send_async(b"c")
        assert harness.target.resume_calls == ["cont"]
        assert harness.stub.running

    def test_step_resumes_target(self):
        harness = StubHarness()
        harness.client.send_async(b"s")
        assert harness.target.resume_calls == ["step"]

    def test_stop_report_reaches_client(self):
        harness = StubHarness()
        harness.client.send_async(b"c")
        harness.stub.report_stop(5)
        reply = harness.client.wait_for_stop()
        assert reply == b"S05"
        assert not harness.stub.running

    def test_qsupported(self):
        harness = StubHarness()
        reply = harness.client.exchange(b"qSupported:swbreak+")
        assert b"PacketSize" in reply

    def test_unknown_command_gets_empty_reply(self):
        harness = StubHarness()
        assert harness.client.exchange(b"qFrobnicate") == b""

    def test_interrupt_while_running_stops(self):
        harness = StubHarness()
        harness.client.send_async(b"c")
        assert harness.stub.running
        harness.client.send_interrupt()
        reply = harness.client.wait_for_stop()
        assert reply == b"S02"  # SIGINT

    def test_kill_sets_flag(self):
        harness = StubHarness()
        harness.client.kill()
        assert harness.stub.killed

    def test_vcont_query(self):
        harness = StubHarness()
        assert harness.client.exchange(b"vCont?") == b"vCont;c;s"

    def test_malformed_packet_returns_error(self):
        harness = StubHarness()
        reply = harness.client.exchange(b"mzz,4")
        assert reply.startswith(b"E")


class TestCpuTargetAdapter:
    def _cpu(self):
        from repro.hw import Cpu, IoBus, PhysicalMemory
        from repro.hw import firmware
        cpu = Cpu(PhysicalMemory(1 << 20), IoBus())
        firmware.install_flat_firmware(cpu)
        return cpu

    def test_register_access(self):
        cpu = self._cpu()
        adapter = CpuTargetAdapter(cpu)
        cpu.regs[2] = 0x1234
        cpu.pc = 0x8000
        values = adapter.read_registers()
        assert values[2] == 0x1234
        assert values[8] == 0x8000
        adapter.write_register(8, 0x9000)
        assert cpu.pc == 0x9000

    def test_memory_access_respects_translation(self):
        cpu = self._cpu()
        adapter = CpuTargetAdapter(cpu)
        assert adapter.write_memory(0x5000, b"abcd")
        assert adapter.read_memory(0x5000, 4) == b"abcd"
        # Beyond segment limit: fails gracefully.
        assert adapter.read_memory(0x10000000, 4) is None
        assert not adapter.write_memory(0x10000000, b"x")

    def test_breakpoints_map_to_cpu(self):
        cpu = self._cpu()
        adapter = CpuTargetAdapter(cpu)
        adapter.set_breakpoint(0x4000)
        assert 0x4000 in cpu.code_breakpoints
        adapter.clear_breakpoint(0x4000)
        assert not cpu.code_breakpoints

    def test_watchpoints_map_to_cpu(self):
        cpu = self._cpu()
        adapter = CpuTargetAdapter(cpu)
        adapter.set_watchpoint(0x9000, 4, "watch")
        assert cpu.watchpoints == [(0x9000, 4, True)]
        assert adapter.clear_watchpoint(0x9000, 4, "watch")
        assert not adapter.clear_watchpoint(0x9000, 4, "watch")


class TestTargetXml:
    def test_qsupported_advertises_xfer(self):
        harness = StubHarness()
        reply = harness.client.exchange(b"qSupported")
        assert b"qXfer:features:read+" in reply

    def test_full_read_in_one_window(self):
        harness = StubHarness()
        reply = harness.client.exchange(
            b"qXfer:features:read:target.xml:0,4096")
        assert reply.startswith(b"l")
        assert b"<architecture>hx32</architecture>" in reply
        assert reply.count(b"<reg ") == 10

    def test_windowed_reads_concatenate(self):
        harness = StubHarness()
        collected = bytearray()
        offset = 0
        while True:
            reply = harness.client.exchange(
                f"qXfer:features:read:target.xml:{offset:x},40"
                .encode())
            collected += reply[1:]
            offset += len(reply) - 1
            if reply.startswith(b"l"):
                break
        whole = harness.client.exchange(
            b"qXfer:features:read:target.xml:0,4096")[1:]
        assert bytes(collected) == whole

    def test_unknown_annex_errors(self):
        harness = StubHarness()
        reply = harness.client.exchange(
            b"qXfer:features:read:nothere.xml:0,100")
        assert reply == b"E00"

    def test_malformed_window_errors(self):
        harness = StubHarness()
        reply = harness.client.exchange(
            b"qXfer:features:read:target.xml:zz")
        assert reply == b"E01"
