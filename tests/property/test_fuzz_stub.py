"""Fuzzing: the debug stub and packet decoder must survive arbitrary
bytes — a debugger that can be crashed by line noise is not "stable".
"""

import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DebugSession
from repro.guest import KernelConfig, build_kernel
from repro.hw import Cpu, IoBus, PhysicalMemory
from repro.hw import firmware
from repro.rsp.packets import PacketDecoder, frame, hex_decode
from repro.rsp.stub import DebugStub
from repro.rsp.target import NUM_REPORTED_REGS, CpuTargetAdapter
from repro.vmm.commands import COMMANDS


def make_stub():
    cpu = Cpu(PhysicalMemory(1 << 20), IoBus())
    firmware.install_flat_firmware(cpu)
    sent = bytearray()
    stub = DebugStub(CpuTargetAdapter(cpu), send_bytes=sent.extend)
    return stub, sent, cpu


class TestStubRobustness:
    @given(noise=st.binary(min_size=0, max_size=512))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_never_crash_the_stub(self, noise):
        stub, _, _ = make_stub()
        stub.feed(noise)  # must not raise

    @given(noise=st.binary(min_size=0, max_size=256),
           payload=st.binary(min_size=1, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_valid_packet_after_noise_still_served(self, noise, payload):
        """Noise may swallow at most one packet (NAK'd); the client's
        retransmission always gets through — the RSP recovery story."""
        stub, sent, _ = make_stub()
        stub.feed(noise)
        sent.clear()
        stub.feed(frame(b"g"))
        if b"$" not in bytes(sent):
            # The first copy was absorbed into a noise-opened packet and
            # NAK'd; GDB retransmits on NAK.
            assert b"-" in bytes(sent)
            sent.clear()
            stub.feed(frame(b"g"))
        assert b"$" in bytes(sent)

    @given(body=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126),
        min_size=0, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_printable_command_gets_a_reply(self, body):
        stub, sent, _ = make_stub()
        stub.feed(frame(body.encode("latin-1")))
        data = bytes(sent)
        if body[:1] in ("c", "s", "k", "D"):
            return  # resume/kill commands legitimately defer the reply
        assert data.count(b"$") >= 1  # some reply packet was framed

    @given(addr=st.integers(min_value=0, max_value=0xFFFFFFFF),
           length=st.integers(min_value=0, max_value=0x1000))
    @settings(max_examples=150, deadline=None)
    def test_memory_reads_never_crash_target(self, addr, length):
        stub, sent, _ = make_stub()
        stub.feed(frame(f"m{addr:x},{length:x}".encode()))
        data = bytes(sent)
        assert data.count(b"$") == 1  # exactly one reply (data or Exx)

    @given(junk=st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_decoder_survives_embedded_control_bytes(self, junk):
        decoder = PacketDecoder()
        decoder.feed(b"$" + junk + b"#zz")   # broken checksum field
        decoder.feed(frame(b"ok?"))
        # The stream resynchronises on the next well-formed packet.
        packets = []
        while True:
            packet = decoder.next_packet()
            if packet is None:
                break
            packets.append(packet)
        assert b"ok?" in packets


class TestStubStateMachine:
    @given(commands=st.lists(
        st.sampled_from([b"?", b"g", b"m1000,10", b"qSupported",
                         b"Z0,4000,1", b"z0,4000,1", b"H g0",
                         b"vCont?", b"T0", b"p3", b"qC"]),
        min_size=1, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_every_query_sequence_gets_equal_replies(self, commands):
        stub, sent, _ = make_stub()
        for command in commands:
            stub.feed(frame(command))
        replies = bytes(sent).count(b"$")
        assert replies == len(commands)
        assert stub.packets_handled == len(commands)


_WORD = st.text(alphabet=string.ascii_letters + string.digits + "-_.",
                min_size=1, max_size=10)
#: Argument tokens: the qRcmd grammar's own words, small (also
#: non-positive) counts and strides, or any word at all.
_TOKEN = st.one_of(
    st.sampled_from(["start", "stop", "dump", "status", "on", "off",
                     "flush", "checkpoint", "tcp", "rx", "all"]),
    st.integers(min_value=-2, max_value=64).map(str),
    _WORD)


class TestLvmmMonitorCommands:
    @given(commands=st.lists(
        st.tuples(st.one_of(st.sampled_from(sorted(COMMANDS)), _WORD),
                  st.lists(_TOKEN, max_size=3)),
        min_size=1, max_size=6))
    @example(commands=[("trace", ["start", "0"]), ("trace", ["start", "8"]),
                       ("trace", ["dump", "0"]), ("trace", ["stop"])])
    @settings(max_examples=60, deadline=None)
    def test_any_qrcmd_is_answered_and_leaks_no_tap(self, commands):
        """Whatever the host sends as ``monitor ...``, the LVMM replies,
        subscribes nothing it does not own, and keeps serving RSP."""
        sess = DebugSession(monitor="lvmm")
        sess.load_and_boot(build_kernel(KernelConfig(ticks_to_run=4)))
        sess.attach()
        monitor = sess.monitor
        for name, tokens in commands:
            text = " ".join([name, *tokens])
            reply = sess.client.exchange(
                b"qRcmd," + text.encode("ascii").hex().encode("ascii"))
            assert reply in (b"E01", b"OK") or hex_decode(
                reply.decode("ascii"))
            if monitor.obs_tracer is None:
                assert not monitor.trace.taps
                assert not monitor.record_taps
        registers = hex_decode(sess.client.exchange(b"g").decode("ascii"))
        assert len(registers) == 4 * NUM_REPORTED_REGS
