"""Differential property: counted superblock loops are invisible.

A loop block fixes its trip count at entry, the most whole iterations
that fit under the run cap or the next profiler sample and under the
next device event.  A register-only loop (no handler in its body) also
keeps the registers it touches in locals and accounts its iterations
only at its exits.  Seeded random register-only bodies, built from
every inlined ALU, move and flag-writing instruction, end with every
conditional terminator and with JMP.  Each program runs under the real
run loop (``Cpu.run``), once interpreted and once with superblocks,
with its limits placed one below, on and one above a whole number of
iterations from the loop entry: instret caps (no event source, so the
cycle limit is infinite), device-event deadlines, profiler strides,
and a long run with no limit near the loop at all.  Registers, flags,
pc, instret, cycle count, the budget ledger and the steps each run
reports retired must agree at every stop.
"""

import random

import pytest

from repro.asm import assemble
from repro.hw import Cpu, IoBus, PhysicalMemory, firmware

ORIGIN = 0x4000
REGS = (0, 1, 2, 3, 4, 5)
TERMINATORS = ("JZ", "JNZ", "JC", "JNC", "JS", "JNS", "JG", "JGE", "JL",
               "JLE", "JMP")
IMMEDIATES = (0, 1, 3, 0x7F, 0xFFFF, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _inline(rng):
    r, s = rng.choice(REGS), rng.choice(REGS)
    kind = rng.randrange(7)
    if kind == 0:
        op = rng.choice(("ADD", "SUB", "CMP", "AND", "OR", "XOR", "TEST",
                         "MUL", "SHL", "SHR", "MOV", "XCHG"))
        return f"{op} R{r}, R{s}"
    if kind == 1:
        op = rng.choice(("ADDI", "SUBI", "CMPI", "ANDI", "ORI", "XORI",
                         "MULI", "MOVI"))
        return f"{op} R{r}, {rng.choice(IMMEDIATES)}"
    if kind == 2:
        return f"{rng.choice(('SHLI', 'SHRI'))} R{r}, {rng.randrange(32)}"
    if kind == 3:
        return f"DIVI R{r}, {rng.randrange(1, 9)}"
    if kind == 4:
        return f"{rng.choice(('NOT', 'NEG'))} R{r}"
    if kind == 5:
        return f"LEA R{r}, [R{s}+{rng.randrange(64)}]"
    return rng.choice(("NOP", f"SUBI R{r}, 1", f"ADDI R{r}, 1"))


def program(seed, terminator):
    """1-6 inlined instructions closed by ``terminator``; a conditional's
    fall-through jumps straight back, so the loop never ends."""
    rng = random.Random(seed)
    body = [_inline(rng) for _ in range(rng.randrange(1, 7))]
    lines = [f"MOVI R{r}, {rng.randrange(1 << 32)}" for r in REGS]
    lines += ["loop:"] + body + [f"{terminator} loop", "JMP loop"]
    return "\n".join(lines)


def snapshot(cpu, retired):
    return (cpu.regs[:], cpu.flags, cpu.pc, cpu.instret, cpu.cycle_count,
            cpu.budget.by_category(), cpu.block_extra_steps, retired)


class Deadlines:
    """The device side of ``Cpu.run``: an event is due at each deadline,
    and firing one snapshots the machine."""

    def __init__(self, cpu, due):
        self.cpu = cpu
        self.queue = self
        self.due = list(due)
        self.stops = []

    def peek_time(self):
        return self.due[0] if self.due else None

    def sync_events(self):
        while self.due and self.cpu.cycle_count >= self.due[0]:
            self.due.pop(0)
            self.stops.append(snapshot(self.cpu, None))


class Sampler:
    """A profiler hook for ``Cpu.run``: a sample every ``stride``
    instructions snapshots the machine."""

    def __init__(self, cpu, stride):
        self.cpu = cpu
        self.stride = stride
        self.next_sample = cpu.instret + stride
        self.stops = []

    def between_instructions(self):
        return False

    def take_sample(self, cpu):
        self.stops.append(snapshot(cpu, None))
        return cpu.instret + self.stride


def loop_shape(source):
    """(entry, instructions, cycles) of the compiled loop block, which
    must be in the counted, register-only form."""
    cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=True)
    firmware.install_flat_firmware(cpu)
    built = assemble(source, origin=ORIGIN)
    built.load_into(cpu.memory)
    cpu.pc = ORIGIN
    cpu.run(2_000)
    entry = built.symbol("loop")
    engine = cpu._sb_engine
    block, meta = engine.blocks[entry], engine.block_meta[entry]
    insns, cycles = block[1], block[2]
    assert "if k == n:" in meta.source
    assert f"ir += {insns} * k" in meta.source
    return entry, insns, cycles


def run_counted(source, translate, seed, entry, insns, cycles):
    cpu = Cpu(PhysicalMemory(1 << 20), IoBus(), translate=translate,
              decode_cache=translate)
    firmware.install_flat_firmware(cpu)
    assemble(source, origin=ORIGIN).load_into(cpu.memory)
    cpu.pc = ORIGIN
    rng = random.Random(seed)
    stops = [snapshot(cpu, cpu.run(40 * insns + 16))]

    def align():
        # Single instructions never fit a block, so this is the same
        # walk to the loop entry in both tiers.
        for _ in range(4 * insns):
            if cpu.pc == entry:
                return
            stops.append(snapshot(cpu, cpu.run(1)))
        raise AssertionError("never reached the loop entry")

    for delta in (-1, 0, 1):
        trips = rng.randrange(1, 40)
        align()
        stops.append(snapshot(cpu, cpu.run(trips * insns + delta)))
        align()
        events = Deadlines(cpu, [cpu.cycle_count + trips * cycles + delta,
                                 cpu.cycle_count + 2 * trips * cycles])
        retired = cpu.run(3 * trips * insns, events=events)
        stops += events.stops + [snapshot(cpu, retired)]
        align()
        sampler = Sampler(cpu, trips * insns + delta)
        retired = cpu.run(3 * trips * insns + 1, hook=sampler)
        stops += sampler.stops + [snapshot(cpu, retired)]
    stops.append(snapshot(cpu, cpu.run(5_000)))
    return cpu, stops


@pytest.mark.parametrize("seed", range(16))
def test_counted_loops_match_the_interpreter(seed):
    translated = 0
    for terminator in TERMINATORS:
        source = program(seed, terminator)
        shape = loop_shape(source)
        fast, fast_stops = run_counted(source, True, seed, *shape)
        _slow, slow_stops = run_counted(source, False, seed, *shape)
        assert len(fast_stops) == len(slow_stops), (terminator, source)
        for index, (got, want) in enumerate(zip(fast_stops, slow_stops)):
            assert got == want, (terminator, index, source)
        assert fast.block_cache_stats()["hits"], (terminator, source)
        translated += fast.block_cache_stats()["insns_translated"]
    assert translated > 11 * 2_500, "the loop blocks hardly ran"
