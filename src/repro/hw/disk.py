"""Disk model: an Ultra160-era SCSI drive with deterministic contents.

Block contents are synthesised from the LBA (plus a per-disk seed) so a
multi-gigabyte disk costs no host memory; writes are stored in a sparse
overlay.  Timing follows a simple seek + sustained-transfer model that is
representative of the 10k-RPM drives behind the paper's streaming
workload (~40 MB/s sustained media rate, ~5 ms average seek).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict

from repro.errors import DeviceError

BLOCK_SIZE = 512

#: A block's contents are the sha256 digest of its packed (seed, LBA)
#: repeated to fill it; 32-byte digests tile 512 bytes exactly.
_pack_seed_lba = struct.Struct("<QQ").pack
_DIGESTS_PER_BLOCK = BLOCK_SIZE // hashlib.sha256().digest_size


class Disk:
    """One drive: contents + a service-time model."""

    def __init__(self, blocks: int, seed: int = 0,
                 sustained_bytes_per_sec: float = 40e6,
                 seek_seconds: float = 0.005) -> None:
        if blocks <= 0:
            raise DeviceError(f"disk needs a positive block count: {blocks}")
        self.blocks = blocks
        self.seed = seed
        self.sustained_bytes_per_sec = sustained_bytes_per_sec
        self.seek_seconds = seek_seconds
        self._overlay: Dict[int, bytes] = {}
        self._head_lba = 0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _check_range(self, lba: int, count: int) -> None:
        if lba < 0 or count < 0 or lba + count > self.blocks:
            raise DeviceError(
                f"LBA range [{lba}, {lba + count}) beyond {self.blocks} blocks")

    # -- contents ------------------------------------------------------------

    def read_blocks(self, lba: int, count: int) -> bytes:
        self._check_range(lba, count)
        self.reads += 1
        self.bytes_read += count * BLOCK_SIZE
        overlay = self._overlay
        seed = self.seed
        sha256, pack = hashlib.sha256, _pack_seed_lba
        return b"".join([
            data if (data := overlay.get(block)) is not None
            else sha256(pack(seed, block)).digest() * _DIGESTS_PER_BLOCK
            for block in range(lba, lba + count)])

    def write_blocks(self, lba: int, data: bytes) -> None:
        if len(data) % BLOCK_SIZE:
            raise DeviceError(
                f"write length {len(data)} is not a multiple of {BLOCK_SIZE}")
        count = len(data) // BLOCK_SIZE
        self._check_range(lba, count)
        self.writes += 1
        self.bytes_written += len(data)
        for index in range(count):
            self._overlay[lba + index] = bytes(
                data[index * BLOCK_SIZE:(index + 1) * BLOCK_SIZE])

    # -- timing ------------------------------------------------------------

    def service_seconds(self, lba: int, count: int) -> float:
        """Seconds to service a request, updating the head position."""
        self._check_range(lba, count)
        sequential = lba == self._head_lba
        self._head_lba = lba + count
        transfer = count * BLOCK_SIZE / self.sustained_bytes_per_sec
        return transfer if sequential else self.seek_seconds + transfer
