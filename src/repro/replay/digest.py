"""Whole-machine state digests for replay cross-checking.

``state_digest`` folds everything architecturally visible into one
sha256 hex string: :func:`repro.core.snapshot.machine_state` (the same
map a checkpoint stores and restores), plus hashes of the memory image
and the disk overlays.  Unlike :func:`repro.core.snapshot.capture` it
never refuses: digests are taken mid-flight (between host operations),
so in-flight device state is part of what they attest.

The memory image enters as one hash whose form follows the journal
version the digest is for.  Version 2 uses
:meth:`~repro.hw.mem.PhysicalMemory.page_root`, a hash over per-4 KiB
page hashes that rehashes only the pages written since the previous
digest, so a checkpoint costs what the guest touched.  Version 1 (still
read and replayed) uses a flat sha256 of the whole image.

Host-side link state needs care: the recorder's client drains the
target-to-host queue, but a replayer has no client, so ``a_to_b``
contents differ legitimately.  The digest therefore excludes ``a_to_b``
and the caller mixes in the *rolling* target-to-host stream digest
instead (every byte the target ever sent), which both sides can compute.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

from repro.core.snapshot import machine_state
from repro.replay.journal import VERSION


def _memory_digest(memory, version: int) -> str:
    if version == 1:
        return hashlib.sha256(memory.view()).hexdigest()
    return memory.page_root().hex()


def struct_key(lba: int) -> bytes:
    return lba.to_bytes(8, "little")


def state_digest(machine, monitor=None, extra: Optional[dict] = None,
                 version: int = VERSION) -> str:
    """One sha256 over the machine's architecturally visible state.

    ``extra`` lets the caller mix in stream evidence the machine no
    longer holds (the rolling target-to-host digest); it must be
    JSON-serialisable and deterministic.  ``version`` is the journal
    version the digest is for; it picks the memory hash.
    """
    state = machine_state(machine, monitor)
    state["memory"] = _memory_digest(machine.memory, version)
    state["disk_overlays"] = [
        hashlib.sha256(
            b"".join(struct_key(lba) + block
                     for lba, block in sorted(disk._overlay.items()))
        ).hexdigest()
        for disk in machine.disks]
    if extra:
        state["extra"] = extra
    encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
