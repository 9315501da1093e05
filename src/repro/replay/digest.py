"""Whole-machine state digests for replay cross-checking.

``state_digest`` folds everything architecturally visible — CPU
registers, the full memory image, PIC/PIT/RTC/UART/NIC/SCSI device
state, disk overlays, the monitor's shadow state — into one sha256 hex
string.  Unlike :func:`repro.core.snapshot.capture` it never refuses:
digests are taken mid-flight (between host operations), so in-flight
device state is part of what they attest.

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

from repro.replay.journal import VERSION


def _memory_digest(memory, version: int) -> str:
    if version == 1:
        return hashlib.sha256(memory.view()).hexdigest()
    return memory.page_root().hex()


def _machine_state(machine, monitor, version: int) -> dict:
    cpu = machine.cpu
    state = {
        "regs": list(cpu.regs),
        "pc": cpu.pc,
        "flags": cpu.flags,
        "crs": list(cpu.crs),
        "segments": [[cache.selector, cache.descriptor.pack().hex()]
                     for cache in cpu.segments],
        "gdtr": [cpu.gdt.base, cpu.gdt.limit],
        "idtr": [cpu.idtr_base, cpu.idtr_limit],
        "tss_base": cpu.tss_base,
        "halted": cpu.halted,
        "instret": cpu.instret,
        "cycle": cpu.cycle_count,
        "now": machine.queue.now,
        "memory": _memory_digest(machine.memory, version),
        "pic": machine.pic.state(),
        "pit": machine.pit.state(),
        "rtc": machine.rtc.state(),
        "uart": machine.uart.state(),
        "link_b_to_a": list(machine.serial_link.b_to_a),
        "hba": {
            "mailbox": machine.hba._mailbox,
            "in_flight": machine.hba._in_flight,
            "completions": list(machine.hba._completions),
            "sense": {str(k): v
                      for k, v in sorted(machine.hba._sense.items())},
            "requests_started": machine.hba.requests_started,
        },
        "disk_overlays": [
            hashlib.sha256(
                b"".join(struct_key(lba) + block
                         for lba, block in sorted(disk._overlay.items()))
            ).hexdigest()
            for disk in machine.disks],
    }
    if machine.nic is not None:
        state["nic"] = machine.nic.state()
    if monitor is not None:
        shadow = monitor.shadow
        state["monitor"] = {
            "stopped": monitor.stopped,
            "guest_dead": monitor.guest_dead,
            "guest_dead_reason": monitor.guest_dead_reason,
            "vif": shadow.vif,
            "vif_before_reflect": shadow.vif_before_reflect,
            "idtr": [shadow.idtr.base, shadow.idtr.limit],
            "gdtr": [shadow.gdtr.base, shadow.gdtr.limit],
            "tss_base": shadow.tss_base,
            "cr0": shadow.cr0,
            "cr3": shadow.cr3,
            "halted": shadow.halted,
            "vpic": shadow.virtual_pic.state(),
        }
    return state


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
    state = _machine_state(machine, monitor, version)
    if extra:
        state["extra"] = extra
    encoded = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
