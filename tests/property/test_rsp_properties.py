"""Property-based tests for RSP framing and hardware invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.hw.pic import PicPair, standard_setup
from repro.rsp.packets import (
    PacketDecoder,
    checksum,
    escape,
    frame,
    unescape_and_expand,
)


# ----------------------------------------------------------------------
# The per-byte codec that the search-based one replaced, kept as the
# reference for the differential tests below.
# ----------------------------------------------------------------------

def _reference_escape(payload):
    out = bytearray()
    for byte in payload:
        if byte in (0x23, 0x24, 0x7D, 0x2A):
            out.append(0x7D)
            out.append(byte ^ 0x20)
        else:
            out.append(byte)
    return bytes(out)


def _reference_unescape(payload):
    out = bytearray()
    index = 0
    while index < len(payload):
        byte = payload[index]
        if byte == 0x7D:
            if index + 1 >= len(payload):
                raise ProtocolError("dangling escape at end of packet")
            out.append(payload[index + 1] ^ 0x20)
            index += 2
            continue
        if byte == 0x2A:
            if not out or index + 1 >= len(payload):
                raise ProtocolError("malformed run-length encoding")
            repeat = payload[index + 1] - 29
            if repeat < 3 or repeat > 97:
                raise ProtocolError(f"run length {repeat} out of range")
            out.extend(out[-1:] * repeat)
            index += 2
            continue
        out.append(byte)
        index += 1
    return bytes(out)


class _ReferenceDecoder:
    """One state-machine step per byte; acks/naks counted."""

    def __init__(self):
        self._buffer = bytearray()
        self._in_packet = False
        self.packets = []
        self.acks = 0
        self.naks = 0
        self.interrupts = 0

    def feed(self, data):
        replies = bytearray()
        for byte in data:
            if not self._in_packet:
                if byte == 0x24:
                    self._in_packet = True
                    self._buffer.clear()
                elif byte == 0x03:
                    self.interrupts += 1
                elif byte == 0x2B:
                    self.acks += 1
                elif byte == 0x2D:
                    self.naks += 1
                continue
            self._buffer.append(byte)
            if len(self._buffer) >= 3 and self._buffer[-3] == 0x23:
                raw = bytes(self._buffer)
                self._in_packet = False
                body = raw[:-3]
                try:
                    expected = int(raw[-2:].decode("ascii"), 16)
                except ValueError:
                    replies += b"-"
                    continue
                if checksum(body) != expected:
                    replies += b"-"
                    continue
                try:
                    self.packets.append(_reference_unescape(body))
                except ProtocolError:
                    replies += b"-"
                    continue
                replies += b"+"
        return bytes(replies)


def _outcome(function, payload):
    try:
        return function(payload)
    except ProtocolError as exc:
        return ("ProtocolError", str(exc))


def _state(decoder):
    return (decoder.packets, decoder.acks, decoder.naks,
            decoder.interrupts, decoder._in_packet,
            bytes(decoder._buffer) if decoder._in_packet else None)


#: Bytes that steer the codec, plus a few hex digits and a space (an
#: RLE count of 3) so checksums and escapes sometimes come out valid.
_STEERING = b"$#}*+-\x03 0af"
_META_HEAVY = st.binary(max_size=24).map(
    lambda raw: bytes(_STEERING[b % len(_STEERING)] for b in raw))


def _body(draw):
    return draw(st.one_of(_META_HEAVY, st.binary(max_size=24)))


@st.composite
def _wire_piece(draw):
    kind = draw(st.sampled_from(["noise", "framed", "bad-sum",
                                 "dangling", "bad-rle", "raw-body"]))
    body = _body(draw)
    if kind == "noise":
        return body
    if kind == "framed":
        return frame(body)
    if kind == "bad-sum":
        return b"$" + escape(body) + b"#" + draw(st.binary(min_size=2,
                                                          max_size=2))
    if kind == "dangling":
        raw = escape(body) + b"}"
    elif kind == "bad-rle":
        raw = draw(st.sampled_from([b"", b"a"])) + b"*" \
            + draw(st.binary(max_size=1))
    else:
        raw = body  # unescaped metacharacters, correct checksum
    return b"$" + raw + b"#" + f"{checksum(raw):02x}".encode()


@st.composite
def _chunked_stream(draw):
    wire = b"".join(draw(st.lists(_wire_piece(), max_size=8)))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(wire)), max_size=10)))
    bounds = [0] + cuts + [len(wire)]
    return [wire[a:b] for a, b in zip(bounds, bounds[1:])]


class TestCodecMatchesReference:
    @given(chunks=_chunked_stream())
    @settings(max_examples=500, deadline=None)
    def test_decoder_matches_per_byte_reference(self, chunks):
        decoder, reference = PacketDecoder(), _ReferenceDecoder()
        for chunk in chunks:
            assert decoder.feed(chunk) == reference.feed(chunk)
            assert _state(decoder) == _state(reference)

    @given(payload=st.one_of(_META_HEAVY, st.binary(max_size=64)))
    @settings(max_examples=500, deadline=None)
    def test_escape_and_unescape_match_reference(self, payload):
        assert escape(payload) == _reference_escape(payload)
        assert _outcome(unescape_and_expand, payload) \
            == _outcome(_reference_unescape, payload)


class TestRspFraming:
    @given(payload=st.binary(min_size=0, max_size=512))
    @settings(max_examples=200)
    def test_escape_unescape_identity(self, payload):
        assert unescape_and_expand(escape(payload)) == payload

    @given(payload=st.binary(min_size=0, max_size=512))
    @settings(max_examples=200)
    def test_frame_decode_identity(self, payload):
        decoder = PacketDecoder()
        replies = decoder.feed(frame(payload))
        assert replies == b"+"
        assert decoder.next_packet() == payload

    @given(payloads=st.lists(st.binary(min_size=0, max_size=64),
                             min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_stream_of_packets_all_decoded_in_order(self, payloads):
        decoder = PacketDecoder()
        wire = b"".join(frame(p) for p in payloads)
        decoder.feed(wire)
        for expected in payloads:
            assert decoder.next_packet() == expected
        assert decoder.next_packet() is None

    @given(payload=st.binary(min_size=0, max_size=128),
           chunks=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_arbitrary_fragmentation_is_transparent(self, payload,
                                                    chunks):
        """Feeding the wire bytes in any chunking decodes identically."""
        wire = frame(payload)
        decoder = PacketDecoder()
        step = max(1, len(wire) // chunks)
        for start in range(0, len(wire), step):
            decoder.feed(wire[start:start + step])
        assert decoder.next_packet() == payload

    @given(noise=st.binary(min_size=0, max_size=64),
           payload=st.binary(min_size=0, max_size=64))
    @settings(max_examples=100)
    def test_line_noise_before_packet_ignored(self, noise, payload):
        # Noise must not contain packet-control bytes.
        cleaned = bytes(b for b in noise
                        if b not in (0x24, 0x03, 0x2B, 0x2D))
        decoder = PacketDecoder()
        decoder.feed(cleaned + frame(payload))
        assert decoder.next_packet() == payload

    @given(payload=st.binary(min_size=0, max_size=64))
    def test_checksum_is_mod_256(self, payload):
        assert 0 <= checksum(payload) <= 0xFF
        assert checksum(payload) == sum(payload) % 256


class TestPicInvariants:
    @given(operations=st.lists(
        st.one_of(
            st.tuples(st.just("raise"),
                      st.integers(min_value=0, max_value=15)),
            st.tuples(st.just("ack"), st.just(0)),
            st.tuples(st.just("eoi"), st.just(0)),
            st.tuples(st.just("mask"),
                      st.integers(min_value=0, max_value=255)),
        ), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_acknowledge_always_returns_highest_unmasked(self, operations):
        """Whatever the op sequence, an INTA always hands out the
        highest-priority pending unmasked IRQ, and IRR/ISR stay
        consistent bitmasks."""
        pic = PicPair()
        standard_setup(pic)
        for op, arg in operations:
            if op == "raise":
                pic.raise_irq(arg)
            elif op == "mask":
                pic.master.port_write(1, arg, 1)
            elif op == "eoi":
                pic.master.port_write(0, 0x20, 1)
                pic.slave.port_write(0, 0x20, 1)
            elif op == "ack":
                if pic.has_pending():
                    vector = pic.acknowledge()
                    assert 32 <= vector < 48
            # Invariants after every step:
            assert 0 <= pic.master.irr <= 0xFF
            assert 0 <= pic.master.isr <= 0xFF
            expected = pic.pending_vector()
            if expected is not None:
                line = (expected - 32 if expected < 40
                        else expected - 40 + 8)
                master_line = line if line < 8 else 2
                # The line must be requested and unmasked on the master.
                assert pic.master.irr & (1 << master_line)
                assert not pic.master.imr & (1 << master_line)

    @given(lines=st.lists(
        st.sampled_from([0, 1, 3, 4, 5, 6, 7]),  # IRQ2 is the cascade
        min_size=1, max_size=7, unique=True))
    @settings(max_examples=100)
    def test_drain_order_is_priority_order(self, lines):
        """Raising any set of master IRQs and draining with EOIs always
        yields ascending line numbers (fixed priority)."""
        pic = PicPair()
        standard_setup(pic)
        for line in lines:
            pic.raise_irq(line)
        drained = []
        while pic.has_pending():
            drained.append(pic.acknowledge() - 32)
            pic.master.port_write(0, 0x20, 1)
        assert drained == sorted(lines)
