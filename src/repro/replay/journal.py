"""Journal container: length-prefixed, sha256-framed, crash-consistent.

A journal is a flat sequence of frames::

    magic "LVMMJRNL" | u16 version
    frame := u32 payload_len (LE) | u8 type | payload | digest[8]

where ``payload`` is canonical JSON (sorted keys, compact separators,
UTF-8) and ``digest`` is the first 8 bytes of
``sha256(magic | version | type | payload)``.  The container is the
same in every version; the version says how the ``checkpoint`` and
``end`` state digests hash guest memory (see
:mod:`repro.replay.digest`).  New journals are written as
:data:`VERSION`; every version in :data:`READ_VERSIONS` still loads, and
replays under its own digest rules.  Every frame is
self-checking, so a journal whose tail was lost to a crash (the writer
died mid-frame) loads cleanly up to the last intact frame instead of
raising; the loader marks such journals ``truncated``.

Frame types give tooling a structural skeleton without parsing JSON:

* ``FRAME_HEADER`` — machine configuration + guest image, always first;
* ``FRAME_EVENT`` — one recorded event (replayable input, host
  operation, or cross-check evidence; the payload's ``kind`` says which,
  see :mod:`repro.replay.recorder`);
* ``FRAME_CHECKPOINT`` — a periodic whole-machine state digest;
* ``FRAME_END`` — final digest + invariant verdict; its presence marks
  the journal ``complete``.
"""

from __future__ import annotations

import json
import os
import signal
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import JournalError
from repro.hw.machine import MachineConfig

from hashlib import sha256

MAGIC = b"LVMMJRNL"
#: Version written by new recordings.  Version 2 hashes guest memory as
#: a root over per-page hashes; version 1 as one flat sha256.
VERSION = 2
READ_VERSIONS = (1, 2)
DIGEST_LEN = 8
_HEAD = struct.Struct("<IB")  # payload_len, frame type

FRAME_HEADER = 1
FRAME_EVENT = 2
FRAME_CHECKPOINT = 3
FRAME_END = 4

_TYPE_NAMES = {FRAME_HEADER: "header", FRAME_EVENT: "event",
               FRAME_CHECKPOINT: "checkpoint", FRAME_END: "end"}

#: Maximum accepted payload size — a corrupted length prefix must not
#: make the loader try to slurp gigabytes.
MAX_PAYLOAD = 16 * 1024 * 1024
#: Largest guest RAM a journal header may ask for (256 MiB): a replay
#: allocates it, so a hostile header must not size it.
MAX_MEMORY_SIZE = 256 * 1024 * 1024


def _canonical(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _frame_digest(version: int, frame_type: int, payload: bytes) -> bytes:
    hasher = sha256(MAGIC)
    hasher.update(struct.pack("<HB", version, frame_type))
    hasher.update(payload)
    return hasher.digest()[:DIGEST_LEN]


@dataclass
class Frame:
    """One journal frame: a structural type plus a JSON payload."""

    type: int
    data: Dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """The payload's event kind, or the structural type name."""
        return self.data.get("kind", _TYPE_NAMES.get(self.type, "?"))

    def encode(self, version: int = VERSION) -> bytes:
        payload = _canonical(self.data)
        if len(payload) > MAX_PAYLOAD:
            raise JournalError(
                f"frame payload of {len(payload)} bytes exceeds "
                f"the {MAX_PAYLOAD}-byte frame limit")
        return (_HEAD.pack(len(payload), self.type) + payload
                + _frame_digest(version, self.type, payload))


@dataclass
class Journal:
    """A parsed journal: header + frames (+ loader verdicts)."""

    header: Dict
    frames: List[Frame] = field(default_factory=list)
    #: True when the loader had to discard a damaged tail.
    truncated: bool = False
    #: Format version: frames are hashed, and digests computed, by it.
    version: int = VERSION

    @property
    def complete(self) -> bool:
        """A FRAME_END was written: the recording finished cleanly."""
        return bool(self.frames) and self.frames[-1].type == FRAME_END

    @property
    def end_frame(self) -> Optional[Frame]:
        return self.frames[-1] if self.complete else None

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for frame in self.frames:
            counts[frame.kind] = counts.get(frame.kind, 0) + 1
        return counts

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        out += struct.pack("<H", self.version)
        out += Frame(FRAME_HEADER, self.header).encode(self.version)
        for frame in self.frames:
            out += frame.encode(self.version)
        return bytes(out)

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())


def loads_journal(data: bytes, strict: bool = False) -> Journal:
    """Parse journal bytes.

    With ``strict=False`` (the default, the crash-recovery mode) a
    damaged tail — short frame, bad digest, bad JSON — ends the parse at
    the last intact frame and sets ``truncated``.  With ``strict=True``
    any damage raises :class:`JournalError`.
    """
    prefix = len(MAGIC) + 2
    if len(data) < prefix or data[:len(MAGIC)] != MAGIC:
        raise JournalError("not a journal: bad magic")
    (version,) = struct.unpack_from("<H", data, len(MAGIC))
    if version not in READ_VERSIONS:
        raise JournalError(f"unsupported journal version {version}")

    frames: List[Frame] = []
    truncated = False
    offset = prefix
    while offset < len(data):
        try:
            frame, offset = _decode_frame(data, offset, version)
        except JournalError:
            if strict:
                raise
            truncated = True
            break
        frames.append(frame)

    if not frames or frames[0].type != FRAME_HEADER:
        raise JournalError("journal has no intact header frame")
    header_frame = frames.pop(0)
    return Journal(header=header_frame.data, frames=frames,
                   truncated=truncated, version=version)


def _decode_frame(data: bytes, offset: int, version: int):
    if offset + _HEAD.size > len(data):
        raise JournalError("truncated frame header")
    payload_len, frame_type = _HEAD.unpack_from(data, offset)
    if payload_len > MAX_PAYLOAD:
        raise JournalError(f"frame payload length {payload_len} too large")
    if frame_type not in _TYPE_NAMES:
        raise JournalError(f"unknown frame type {frame_type}")
    start = offset + _HEAD.size
    end = start + payload_len + DIGEST_LEN
    if end > len(data):
        raise JournalError("truncated frame body")
    payload = data[start:start + payload_len]
    digest = data[start + payload_len:end]
    if digest != _frame_digest(version, frame_type, payload):
        raise JournalError("frame digest mismatch")
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JournalError(f"frame payload is not valid JSON: {exc}")
    if not isinstance(decoded, dict):
        raise JournalError("frame payload must be a JSON object")
    return Frame(frame_type, decoded), end


class JournalWriter:
    """Incremental, kill-safe journal spooling.

    The in-memory :class:`~repro.replay.recorder.FlightRecorder` only
    materialises its journal at :meth:`finish` — useless if the
    recording *process* is the thing that dies (a fleet worker hit by
    ``SIGKILL``).  The writer streams the identical byte format to disk
    as frames are appended, flushing and (by default) ``fsync``-ing at
    every frame boundary, so the on-disk journal is always either
    frame-complete or torn only in its final frame — exactly the damage
    :func:`loads_journal`'s truncated-tail recovery absorbs.

    ``close`` is idempotent and safe to call from a signal handler;
    :meth:`install_sigterm_close` arms a ``SIGTERM`` handler that
    closes the spool (flush + fsync) before the process exits with the
    conventional 143, so a politely-terminated worker never leaves a
    torn tail at all.
    """

    def __init__(self, path, header: Dict, fsync: bool = True,
                 version: int = VERSION) -> None:
        self.path = str(path)
        self.fsync = fsync
        self.version = version
        self.frames_written = 0
        self.bytes_written = 0
        self._closed = False
        # SIGTERM arriving mid-``_write`` waits for the frame boundary:
        # the handler must not re-enter the file object's flush.
        self._writing = False
        self._term_pending = False
        self._handle = open(self.path, "wb")
        self._write(MAGIC + struct.pack("<H", version)
                    + Frame(FRAME_HEADER, header).encode(version))

    def _write(self, blob: bytes) -> None:
        self._writing = True
        try:
            self._handle.write(blob)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self.bytes_written += len(blob)
        finally:
            self._writing = False
        if self._term_pending:
            self._seal_and_exit()

    def append(self, frame: Frame) -> None:
        """Durably append one frame (flush + fsync at the boundary)."""
        if self._closed:
            raise JournalError(
                f"journal writer for {self.path!r} is closed")
        self._write(frame.encode(self.version))
        self.frames_written += 1

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Flush, fsync and close the spool file (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        finally:
            self._handle.close()

    def install_sigterm_close(self) -> None:
        """Arm a SIGTERM handler that seals the spool before exiting.

        Every append is already fsync'd, so the handler only has to
        close the file; it then exits with status 143 (the shell
        convention for death-by-SIGTERM) instead of unwinding through
        arbitrary interpreter state.
        """
        def _handler(_signum, _frame) -> None:
            # The handler can run inside the buffered flush of a frame
            # (its write was interrupted); closing there would re-enter
            # the file object, so finish the frame first.
            if self._writing:
                self._term_pending = True
            else:
                self._seal_and_exit()

        signal.signal(signal.SIGTERM, _handler)

    def _seal_and_exit(self) -> None:
        self.close()
        os._exit(143)


def typed_field(data: Dict, name: str, kind, where: str):
    """``data[name]`` if it is a ``kind``, else :class:`JournalError`.

    ``kind=bytes`` expects a hex string and returns it decoded.  The
    error names ``where`` (e.g. ``"frame 12 (run)"``), so a journal with
    valid framing but bad contents is rejected, never crashes replay.
    """
    value = data.get(name) if isinstance(data, dict) else None
    try:
        if kind is bytes:
            return bytes.fromhex(value)
        if isinstance(value, kind):
            return value
    except (TypeError, ValueError):
        pass
    raise JournalError(f"{where}: bad {name!r} field {value!r:.40}")


#: The :class:`MachineConfig` fields a journal header carries, with
#: their JSON types.  Listed explicitly: a new field here changes every
#: journal header, the goldens included.
HEADER_CONFIG = {"memory_size": int, "cpu_hz": (int, float),
                 "disks": list, "disk_rate_bytes_per_sec": (int, float),
                 "with_nic": bool, "nic_mmio_base": int}


def header_config(config: MachineConfig) -> Dict:
    """The header's ``config`` entry for a machine configuration."""
    entry = {name: getattr(config, name) for name in HEADER_CONFIG}
    entry["disks"] = [list(disk) for disk in config.disks]
    return entry


def machine_config(header: Dict) -> MachineConfig:
    """The machine configuration a journal header describes."""
    config = header.get("config")
    values = {name: typed_field(config, name, kind, "journal header config")
              for name, kind in HEADER_CONFIG.items()}
    disks = values["disks"]
    if not all(isinstance(disk, list) and len(disk) == 2
               and all(isinstance(value, int) for value in disk)
               for disk in disks):
        raise JournalError(f"journal header config: bad 'disks' field "
                           f"{disks!r:.40}")
    values["disks"] = [tuple(disk) for disk in disks]
    size = values["memory_size"]
    if not 0 < size <= MAX_MEMORY_SIZE:
        raise JournalError(f"journal header config: bad 'memory_size' field "
                           f"{size} (not in 1..{MAX_MEMORY_SIZE})")
    return MachineConfig(**values)


def save_journal(journal: Journal, path) -> None:
    with open(path, "wb") as handle:
        handle.write(journal.to_bytes())


def load_journal(path, strict: bool = False) -> Journal:
    with open(path, "rb") as handle:
        return loads_journal(handle.read(), strict=strict)
