"""Closed-form CPU-load model — an independent cross-check on the DES.

The discrete-event simulation in :mod:`repro.perf.load` counts every
event as it happens.  This module predicts the same demanded load from
event *rates*: given a transfer rate, how many frames, interrupts, disk
requests, PIC accesses and traps per second the workload generates, and
what each costs on each stack.  The test suite asserts the two agree
within a few percent — a strong guard against either model silently
drifting from the other.

Event-count derivation (per second, at payload rate ``R`` bytes/s):

* segments/s      ``R / segment_size``
* frames/s        segments/s x ceil((segment+8) / 1480)
* NIC interrupts  frames/s / coalesce
* disk requests   ``R / read_chunk`` (2 MB reads)
* ticks           ``timer_hz``

Per-event cost tallies mirror the driver code paths in
:mod:`repro.guest.drivers` one for one (each ``privileged_op``, EOI
write, register access and ISR is itemised below).  What each stack
adds per interrupt, privileged op, trapped PIC access, device access
and copied DMA byte is written once, in :func:`stack_load`;
:mod:`repro.perf.netmodel` prices its measured TCP event counts with
it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel

SEGMENT_SIZE = 1024 * 1024
READ_CHUNK = 2 * 1024 * 1024
FRAGMENT_PAYLOAD = (1500 - 20) & ~7   # 1480
UDP_HEADER = 8

#: A cheap trapped flag operation (stacks.privileged_op emulation part).
PRIV_EMU = 150
#: Bare-metal CLI/STI cost.
PRIV_BARE = 3


@dataclass(frozen=True)
class EventRates:
    """Workload event frequencies at one transfer rate."""

    segments_per_sec: float
    frames_per_sec: float
    nic_interrupts_per_sec: float
    disk_requests_per_sec: float
    ticks_per_sec: float

    @classmethod
    def at_rate(cls, rate_bps: float,
                cost: CostModel = DEFAULT_COST_MODEL,
                segment_size: int = SEGMENT_SIZE,
                read_chunk: int = READ_CHUNK) -> "EventRates":
        bytes_per_sec = rate_bps / 8.0
        segments = bytes_per_sec / segment_size
        frames_per_segment = math.ceil(
            (segment_size + UDP_HEADER) / FRAGMENT_PAYLOAD)
        frames = segments * frames_per_segment
        return cls(
            segments_per_sec=segments,
            frames_per_sec=frames,
            nic_interrupts_per_sec=frames / cost.nic_coalesce,
            disk_requests_per_sec=bytes_per_sec / read_chunk,
            ticks_per_sec=cost.timer_hz,
        )


def _guest_common(rates: EventRates, rate_bps: float,
                  cost: CostModel) -> float:
    """Guest work identical on every stack (cycles/s)."""
    bytes_per_sec = rate_bps / 8.0
    return (
        bytes_per_sec * cost.guest_byte_cycles
        + rates.frames_per_sec * cost.guest_frame_cycles
        + rates.segments_per_sec * cost.guest_segment_cycles
        + rates.disk_requests_per_sec * cost.guest_disk_request_cycles
        + rates.ticks_per_sec * cost.guest_tick_cycles
        # guest ISR body per dispatched interrupt:
        + (rates.nic_interrupts_per_sec + rates.disk_requests_per_sec
           + rates.ticks_per_sec) * cost.guest_interrupt_cycles
    )


def _itemise_accesses(rates: EventRates) -> dict:
    """Bus accesses per second, split by destination, mirroring the
    driver code paths exactly."""
    return {
        # PIC accesses: tick EOI (1) + NIC ISR EOIs (2) + SCSI ISR EOIs (2)
        "pic": (rates.ticks_per_sec
                + 2 * rates.nic_interrupts_per_sec
                + 2 * rates.disk_requests_per_sec),
        # SCSI ports: 2 per request issue + INTSTAT read + ack per ISR
        "scsi": 4 * rates.disk_requests_per_sec,
        # NIC MMIO: 1 TDT doorbell per segment + 1 ICR read per interrupt
        "nic": rates.segments_per_sec + rates.nic_interrupts_per_sec,
    }


def _privileged_ops(rates: EventRates) -> float:
    """CLI/STI-class ops per second (driver critical sections):
    2 per segment send, 2 per NIC ISR, 2 per SCSI ISR."""
    return (2 * rates.segments_per_sec
            + 2 * rates.nic_interrupts_per_sec
            + 2 * rates.disk_requests_per_sec)


def stack_load(stack: str, guest_cycles: float, cost: CostModel, *,
               interrupts: float, privileged: float, pic_accesses: float,
               device_accesses: Sequence[float],
               copied_bytes: float) -> float:
    """Demanded CPU load: the guest's own cycles/s plus ``stack``'s price.

    Every count is per second.  ``device_accesses`` holds the accesses
    to each device other than the PIC (passed through by the LVMM,
    hosted by the full VMM); ``copied_bytes`` is the DMA data the full
    VMM copies through its bounce buffers.  Both the closed-form model
    and :mod:`repro.perf.netmodel` price their event counts here.
    """
    cycles = guest_cycles
    if stack == "bare":
        cycles += interrupts * cost.interrupt_deliver_cycles
        cycles += privileged * PRIV_BARE
        # One left-to-right sum, PIC first: a different grouping moves
        # the float result.
        cycles += sum((pic_accesses, *device_accesses)) \
            * cost.device_access_cycles
    elif stack in ("lvmm", "fullvmm"):
        cycles += interrupts * (cost.world_switch_cycles
                                + cost.pic_emulation_cycles
                                + cost.interrupt_reflect_cycles)
        cycles += privileged * (cost.world_switch_cycles + PRIV_EMU)
        # Intercepted PIC accesses trap + run the 8259 model.
        cycles += pic_accesses * (cost.world_switch_cycles
                                  + cost.pic_emulation_cycles)
        if stack == "lvmm":
            # Other devices pass through at hardware latency.
            cycles += sum(device_accesses) * cost.device_access_cycles
        else:
            # Hosted path for every device access + interrupt double hop
            # + bounce-buffer copies of the DMA data.
            cycles += sum(device_accesses) * cost.host_switch_cycles
            cycles += interrupts * (
                cost.interrupt_host_trips * cost.host_switch_cycles
                + cost.pic_emulation_cycles
                + cost.interrupt_reflect_cycles
                - cost.lvmm_interrupt_cost())
            cycles += copied_bytes * cost.emulation_copy_byte_cycles
    else:
        raise ValueError(f"unknown stack {stack!r}")
    return cycles / cost.cpu_hz


def predict_demanded_load(stack: str, rate_bps: float,
                          cost: Optional[CostModel] = None) -> float:
    """Closed-form demanded CPU load for one stack at one rate."""
    cost = cost or DEFAULT_COST_MODEL
    rates = EventRates.at_rate(rate_bps, cost)
    accesses = _itemise_accesses(rates)
    return stack_load(
        stack, _guest_common(rates, rate_bps, cost), cost,
        interrupts=(rates.nic_interrupts_per_sec
                    + rates.disk_requests_per_sec + rates.ticks_per_sec),
        privileged=_privileged_ops(rates),
        pic_accesses=accesses["pic"],
        device_accesses=(accesses["scsi"], accesses["nic"]),
        # 2x for the disk DMA and 2x for the NIC frames (the frame
        # stream includes per-frame headers, approximated as payload).
        copied_bytes=4 * (rate_bps / 8.0))


def predict_max_rate(stack: str,
                     cost: Optional[CostModel] = None) -> float:
    """Closed-form maximum sustainable rate (demanded load = 1)."""
    cost = cost or DEFAULT_COST_MODEL
    r1, r2 = 40e6, 120e6
    d1 = predict_demanded_load(stack, r1, cost)
    d2 = predict_demanded_load(stack, r2, cost)
    slope = (d2 - d1) / (r2 - r1)
    intercept = d1 - slope * r1
    return (1.0 - intercept) / slope
