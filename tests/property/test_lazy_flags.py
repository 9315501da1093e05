"""Differential property: lazily emitted flags are invisible.

Superblocks emit an inlined instruction's CF/ZF/SF/OF formula only
where FLAGS can be observed: before a handler's commit barrier, inside
each exit branch and, when the next iteration commits FLAGS before
writing them, at the back-edge.  JZ/JNZ loop exits test the pending
result instead of the flag word, and the pacing re-check sits at the
back-edge.  Seeded random loop blocks, built from inline flag writers,
non-flag inline ops and LD/ST handlers (sometimes a handler before the
first flag write), end with every conditional terminator and with JMP.
Half of the handlers' addresses hit an MMIO doorbell that raises an
interrupt every few accesses, so blocks also leave by their IRQ exits,
and the interrupt hook records the committed FLAGS where each one is
taken.  Each program runs under a monitor-style pacing loop whose cycle
deadlines land mid-loop, once interpreted and once with superblocks;
registers, flags, pc, instret, cycle count, the budget ledger, data
memory and the interrupt log must agree at every deadline.
"""

import random

import pytest

from repro.asm import assemble
from repro.hw import Cpu, IoBus, PhysicalMemory, firmware
from repro.hw.bus import MmioDevice

ORIGIN = 0x4000
#: 64 bytes of RAM, then the doorbell's 64 bytes of MMIO.
SCRATCH = 0x9000
DOORBELL = SCRATCH + 64
REGS = (0, 1, 2, 3, 4, 5)
TERMINATORS = ("JZ", "JNZ", "JC", "JNC", "JS", "JNS", "JG", "JGE", "JL",
               "JLE", "JMP")
MAX_INSNS = 2500


def _flag_writer(rng):
    r, s = rng.choice(REGS), rng.choice(REGS)
    kind = rng.randrange(6)
    if kind == 0:
        op = rng.choice(("ADD", "SUB", "CMP", "AND", "OR", "XOR", "TEST",
                         "MUL", "SHL", "SHR"))
        return f"{op} R{r}, R{s}"
    if kind == 1:
        op = rng.choice(("ADDI", "SUBI", "CMPI", "ANDI", "ORI", "XORI",
                         "MULI"))
        imm = rng.choice((0, 1, 7, 0xFFFF, 0x7FFFFFFF, 0x80000000,
                          0xFFFFFFFF))
        return f"{op} R{r}, {imm}"
    if kind == 2:
        return f"{rng.choice(('SHLI', 'SHRI'))} R{r}, {rng.randrange(32)}"
    if kind == 3:
        return f"DIVI R{r}, {rng.randrange(1, 9)}"
    if kind == 4:
        return f"{rng.choice(('NOT', 'NEG'))} R{r}"
    return f"SUBI R{r}, 1"


def _plain(rng):
    r, s = rng.choice(REGS), rng.choice(REGS)
    op = rng.choice(("MOV", "MOVI", "LEA", "XCHG", "NOP"))
    if op == "MOVI":
        return f"MOVI R{r}, {rng.choice((0, 1, 0x80000000))}"
    if op == "LEA":
        return f"LEA R{r}, [R{s}+{rng.randrange(64)}]"
    if op == "NOP":
        return "NOP"
    return f"{op} R{r}, R{s}"


def _handler(rng):
    r, offset = rng.choice(REGS), 4 * rng.randrange(32)
    if rng.randrange(2):
        return f"LD R{r}, [R6+{offset}]"
    return f"ST [R6+{offset}], R{r}"


def random_body(seed):
    """2-8 loop-body instructions; a third of the seeds open with a
    handler, so FLAGS are committed before the first flag write."""
    rng = random.Random(seed)
    body = [_handler(rng)] if seed % 3 == 0 else []
    while len(body) < rng.randrange(2, 9):
        pick = rng.randrange(10)
        body.append(_flag_writer(rng) if pick < 5
                    else _plain(rng) if pick < 8 else _handler(rng))
    return rng, body


def program(seed, terminator):
    """The body as a loop closed by ``terminator``; a conditional's
    fall-through jumps straight back, so the block runs (and leaves by
    its exit branch) many times."""
    rng, body = random_body(seed)
    lines = [f"MOVI R6, {SCRATCH}"]
    lines += [f"MOVI R{r}, {rng.randrange(1 << 32)}" for r in REGS]
    lines += ["loop:"] + body + [f"{terminator} loop", "JMP loop"]
    return "\n".join(lines)


class Doorbell(MmioDevice):
    """Raises an interrupt on every ``period``-th access; the CPU's
    interrupt hook logs the state committed where it is taken."""

    def __init__(self, period):
        self.period = period
        self.accesses = 0
        self.pending = False
        self.log = []

    def _access(self):
        self.accesses += 1
        if self.accesses % self.period == 0:
            self.pending = True
        return (self.accesses * 0x9E3779B9) & 0xFFFFFFFF

    def mmio_read(self, offset, size):
        return self._access() & ((1 << (8 * size)) - 1)

    def mmio_write(self, offset, value, size):
        self._access()

    def has_pending(self):
        return self.pending

    def acknowledge(self):
        self.pending = False
        return 32

    def take(self, cpu, vector):
        self.log.append((cpu.flags, cpu.regs[:], cpu.pc, cpu.instret))
        return True


def run_paced(source, translate, seed):
    """Step like a monitor run loop: blocks may not cross the
    instruction cap or the next cycle deadline; snapshot the machine at
    every deadline."""
    bus = IoBus()
    doorbell = Doorbell(period=3 + seed % 5)
    bus.register_mmio(DOORBELL, 64, doorbell, "doorbell")
    cpu = Cpu(PhysicalMemory(1 << 20), bus, translate=translate,
              decode_cache=translate)
    firmware.install_flat_firmware(cpu)
    cpu.irq_source = doorbell
    cpu.interrupt_hook = doorbell.take
    assemble(source, origin=ORIGIN).load_into(cpu.memory)
    cpu.pc = ORIGIN
    rng = random.Random(seed)
    snapshots = []
    executed = 0
    deadline = 0
    while executed < MAX_INSNS:
        deadline += rng.randrange(1, 120)
        while cpu.cycle_count < deadline and executed < MAX_INSNS:
            cpu.block_instret_limit = cpu.instret + (MAX_INSNS - executed)
            cpu.block_cycle_limit = deadline
            cpu.step()
            executed += 1 + cpu.block_extra_steps
            cpu.block_extra_steps = 0
        snapshots.append((cpu.regs[:], cpu.flags, cpu.pc, cpu.instret,
                          cpu.cycle_count, cpu.budget.by_category(),
                          executed, cpu.memory.read(SCRATCH, 64),
                          len(doorbell.log)))
    cpu.block_instret_limit = cpu.block_cycle_limit = 0
    return cpu, snapshots + doorbell.log


@pytest.mark.parametrize("seed", range(24))
def test_lazy_flags_match_the_interpreter(seed):
    translated = 0
    for terminator in TERMINATORS:
        source = program(seed, terminator)
        fast, fast_snaps = run_paced(source, True, seed)
        _slow, slow_snaps = run_paced(source, False, seed)
        assert len(fast_snaps) == len(slow_snaps)
        for index, (got, want) in enumerate(zip(fast_snaps, slow_snaps)):
            assert got == want, (terminator, index, source)
        translated += fast.block_cache_stats()["insns_translated"]
    assert translated > MAX_INSNS, "no block ever ran"
