"""GDB Remote Serial Protocol framing.

Wire format: ``$<payload>#<2-hex-digit checksum>``, where the checksum is
the modulo-256 sum of the payload bytes.  ``}`` escapes (byte XOR 0x20)
and ``*`` run-length encoding are handled on receive; transmit escapes
the metacharacters.  Every good packet is acknowledged with ``+``, a bad
checksum with ``-``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ProtocolError

ESCAPE = 0x7D  # '}'
RLE = 0x2A     # '*'
PACKET_START = b"$"
PACKET_END = b"#"
ACK = b"+"
NAK = b"-"

#: Bytes that must be escaped inside a payload.
_MUST_ESCAPE = frozenset({0x23, 0x24, 0x7D, 0x2A})
_METACHARS = tuple(bytes((byte,)) for byte in _MUST_ESCAPE)


def checksum(payload: bytes) -> int:
    return sum(payload) & 0xFF


def escape(payload: bytes) -> bytes:
    if not any(meta in payload for meta in _METACHARS):
        return bytes(payload)
    out = bytearray()
    for byte in payload:
        if byte in _MUST_ESCAPE:
            out.append(ESCAPE)
            out.append(byte ^ 0x20)
        else:
            out.append(byte)
    return bytes(out)


def unescape_and_expand(payload: bytes) -> bytes:
    """Undo ``}`` escapes and ``*`` run-length encoding."""
    if b"}" not in payload and b"*" not in payload:
        return bytes(payload)
    out = bytearray()
    index = 0
    while index < len(payload):
        byte = payload[index]
        if byte == ESCAPE:
            if index + 1 >= len(payload):
                raise ProtocolError("dangling escape at end of packet")
            out.append(payload[index + 1] ^ 0x20)
            index += 2
            continue
        if byte == RLE:
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


def frame(payload: bytes) -> bytes:
    """Wrap a payload for the wire (escaped, checksummed)."""
    escaped = escape(payload)
    return b"$" + escaped + b"#" + f"{checksum(escaped):02x}".encode()


class PacketDecoder:
    """Incremental decoder: feed bytes, collect payloads and acks.

    ``feed`` returns the bytes to send back immediately (``+``/``-``
    acknowledgements).  Completed payloads accumulate in
    :attr:`packets`; ``+``/``-`` bytes arriving outside a packet are
    counted in :attr:`acks`/:attr:`naks` and ``^C`` interrupt bytes
    (0x03) in :attr:`interrupts`.

    A packet runs from ``$`` to two bytes past its first ``#``; bytes
    between packets other than those three are line noise.  Both ends
    are found by search, so a feed costs a few slice operations per
    packet, not a step per byte.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._in_packet = False
        self.packets: List[bytes] = []
        self.acks = 0
        self.naks = 0
        self.interrupts = 0

    def feed(self, data: bytes) -> bytes:
        replies = bytearray()
        buffer = self._buffer
        pos, end = 0, len(data)
        while pos < end:
            if not self._in_packet:
                start = data.find(PACKET_START, pos)
                gap = data[pos:] if start < 0 else data[pos:start]
                self.interrupts += gap.count(b"\x03")
                self.acks += gap.count(ACK)
                self.naks += gap.count(NAK)
                if start < 0:
                    break
                self._in_packet = True
                buffer.clear()
                pos = start + 1
                continue
            # An unfinished packet can hold a '#' only in its last two
            # bytes (its checksum digits are still to come).
            mark = buffer.find(PACKET_END, max(0, len(buffer) - 2))
            if mark >= 0:
                stop = pos + mark + 3 - len(buffer)
            else:
                mark = data.find(PACKET_END, pos)
                stop = end + 1 if mark < 0 else mark + 3
            if stop > end:
                buffer += data[pos:]
                break
            buffer += data[pos:stop]
            pos = stop
            self._in_packet = False
            replies += self._complete(bytes(buffer))
        return bytes(replies)

    def _complete(self, raw: bytes) -> bytes:
        """Check one packet (``raw`` excludes the leading ``$``)."""
        body = raw[:-3]
        try:
            expected = int(raw[-2:].decode("ascii"), 16)
        except ValueError:
            return NAK
        if checksum(body) != expected:
            return NAK
        try:
            self.packets.append(unescape_and_expand(body))
        except ProtocolError:
            return NAK
        return ACK

    def next_packet(self) -> Optional[bytes]:
        if self.packets:
            return self.packets.pop(0)
        return None


def hex_encode(data: bytes) -> str:
    return data.hex()


def hex_decode(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise ProtocolError(f"bad hex payload {text!r}") from exc
