"""Integration: failure injection in the streaming workload.

Disk CHECK CONDITIONs mid-stream, NIC ring exhaustion, and the guest
drivers' recovery paths — the behaviour a debugging environment exists
to let you observe.
"""

import pytest

from repro.faults import DiskInjector, FaultPlan, FaultRule
from repro.guest.drivers.nic import GuestNicDriver
from repro.guest.os import HiTactix
from repro.hw.machine import Machine, MachineConfig
from repro.perf.costmodel import DEFAULT_COST_MODEL
from repro.perf.stacks import InterruptDispatcher, make_stack
from repro.sim.events import cycles_for_seconds


def run_workload(machine, stack, guest, dispatcher, sim_seconds):
    guest.register_handlers(dispatcher)
    guest.start()
    dispatcher.dispatch_pending()
    deadline = cycles_for_seconds(sim_seconds, DEFAULT_COST_MODEL.cpu_hz)
    queue = machine.queue
    while True:
        next_time = queue.peek_time()
        if next_time is None or next_time > deadline:
            break
        queue.step()
        dispatcher.dispatch_pending()
    if deadline > queue.now:
        queue.now = deadline


class TestDiskErrorRecovery:
    def _run_with_rules(self, rules, seed=7):
        machine = Machine(MachineConfig())
        machine.program_pic_defaults()
        stack = make_stack("lvmm", machine)
        dispatcher = InterruptDispatcher(machine, stack)
        guest = HiTactix(machine, stack, 100e6)
        plan = FaultPlan(seed, rules=rules)
        DiskInjector(plan, machine.hba)
        run_workload(machine, stack, guest, dispatcher, 0.4)
        return guest, plan, machine

    def test_transient_error_retried_and_stream_continues(self):
        # First read on disk 0 fails with a medium error...
        guest, plan, _ = self._run_with_rules(
            [FaultRule("disk0", "medium-error", at_count=1)])
        assert guest.read_errors == 1
        assert guest.read_retries == 1
        assert guest.segments_sent > 0  # the stream survived
        assert plan.stats()["injected"] == {"disk0.medium-error": 1}

    def test_persistent_error_bounded_retries(self):
        # The first ten requests to disk 0 all fail.
        guest, plan, machine = self._run_with_rules(
            [FaultRule("disk0", "medium-error", every=1, max_fires=10)])
        # Every injected error was observed; retries are bounded per
        # chunk, so at least one chunk was abandoned (error without a
        # retry) instead of retrying forever.
        assert guest.read_errors == 10
        assert guest.read_retries < guest.read_errors
        # And the stream itself survived the bad patch of disk.
        assert guest.segments_sent > 0
        assert machine.hba.faults_injected == 10

    def test_transport_error_also_retried(self):
        # A wildcard site matches each disk's own opportunity counter:
        # the first request on *every* disk fails once.
        guest, plan, _ = self._run_with_rules(
            [FaultRule("disk*", "transport-error", at_count=1)])
        assert guest.read_errors == 3
        assert guest.read_retries == 3
        assert guest.segments_sent > 0
        assert len(plan.trace) == 3

    def test_error_free_run_has_no_retries(self):
        machine = Machine(MachineConfig())
        machine.program_pic_defaults()
        stack = make_stack("lvmm", machine)
        dispatcher = InterruptDispatcher(machine, stack)
        guest = HiTactix(machine, stack, 100e6)
        run_workload(machine, stack, guest, dispatcher, 0.3)
        assert guest.read_errors == 0
        assert guest.read_retries == 0


class TestNicRingExhaustion:
    def test_tiny_ring_forces_backpressure(self):
        """A 16-slot ring cannot hold a 711-fragment segment: the
        driver reports ring-full and the OS holds the segment."""
        machine = Machine(MachineConfig())
        machine.program_pic_defaults()
        stack = make_stack("bare", machine)
        driver = GuestNicDriver(machine, stack, ring_len=16)
        accepted = driver.send_segment(0x40_0000, 1024 * 1024)
        assert not accepted
        assert driver.ring_full_events == 1
        assert driver.frames_queued == 0  # all-or-nothing per segment

    def test_small_segments_fit_small_ring(self):
        machine = Machine(MachineConfig())
        machine.program_pic_defaults()
        stack = make_stack("bare", machine)
        driver = GuestNicDriver(machine, stack, ring_len=16)
        assert driver.send_segment(0x40_0000, 8 * 1024)  # 6 fragments
        machine.queue.run()
        assert machine.nic.frames_sent == driver.frames_queued

    def test_blocked_segment_sent_after_drain(self):
        """The OS-level retry: a held segment goes out on a later tick
        once completions free the ring."""
        machine = Machine(MachineConfig())
        machine.program_pic_defaults()
        stack = make_stack("bare", machine)
        dispatcher = InterruptDispatcher(machine, stack)
        guest = HiTactix(machine, stack, 50e6, segment_size=64 * 1024)
        guest.nic = GuestNicDriver(machine, stack, ring_len=64)
        run_workload(machine, stack, guest, dispatcher, 0.4)
        # Despite the cramped ring, the stream kept its rate.
        assert guest.segments_sent >= 30
        assert guest.nic.frames_reclaimed > 0
