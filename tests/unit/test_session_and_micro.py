"""Unit tests for DebugSession plumbing and the microworkloads."""

import pytest

from repro.core import MONITORS, DebugSession
from repro.errors import MonitorError
from repro.guest import KernelConfig, build_kernel
from repro.workloads.micro import compare, disk_only, net_only


class TestDebugSessionPlumbing:
    def test_unknown_monitor_rejected(self):
        with pytest.raises(MonitorError):
            DebugSession(monitor="xen")

    def test_monitor_registry(self):
        assert set(MONITORS) == {"lvmm", "fullvmm"}

    def test_boot_requires_program(self):
        session = DebugSession()
        with pytest.raises(MonitorError):
            session.load_and_boot()

    def test_run_before_boot_rejected(self):
        session = DebugSession()
        with pytest.raises(MonitorError):
            session.run_guest()

    def test_targets_attach_stopped(self):
        session = DebugSession()
        session.load_and_boot(build_kernel(KernelConfig()))
        assert session.monitor.stopped
        assert session.attach() == 5

    def test_console_property(self):
        session = DebugSession()
        session.load_and_boot(build_kernel(KernelConfig()))
        session.monitor.console.extend(b"xyz")
        assert session.console_output == b"xyz"

    def test_multiple_programs_loaded(self):
        from repro.guest import build_user_task
        session = DebugSession()
        kernel = build_kernel(KernelConfig(with_user_task=True))
        user = build_user_task(2)
        session.load_and_boot(kernel, user)
        # Both images are in memory; PC aims at the first.
        assert session.machine.cpu.pc == kernel.origin
        assert session.machine.memory.read(
            user.origin, 4) == user.image[:4]


class TestMicroWorkloads:
    def test_disk_only_ordering(self):
        results = {stack: disk_only(stack, 0.1)
                   for stack in ("bare", "lvmm", "fullvmm")}
        assert results["bare"].demanded_load \
            <= results["lvmm"].demanded_load \
            < results["fullvmm"].demanded_load
        # Same bytes moved regardless of stack.
        assert results["bare"].bytes_moved == results["lvmm"].bytes_moved

    def test_net_only_ordering(self):
        results = {stack: net_only(stack, 80e6, 0.15)
                   for stack in ("bare", "lvmm", "fullvmm")}
        assert results["bare"].demanded_load \
            < results["lvmm"].demanded_load \
            < results["fullvmm"].demanded_load
        assert results["bare"].bytes_moved > 0

    def test_compare_dispatch(self):
        out = compare("disk", sim_seconds=0.05)
        assert set(out) == {"bare", "lvmm", "fullvmm"}
        with pytest.raises(ValueError):
            compare("tape")

    def test_disk_only_actually_streams(self):
        result = disk_only("bare", 0.2)
        # 3 disks x 40 MB/s for 0.2s less seek time: > 10 MB.
        assert result.bytes_moved > 10 * 1024 * 1024
        assert result.interrupts >= 3


class TestSnapshotDeviceCompleteness:
    """Snapshots round-trip the full device complement (PIT, RTC,
    UART + serial link, SCSI adapter, NIC) — not just CPU and memory."""

    def _booted_session(self):
        session = DebugSession(monitor="lvmm")
        session.load_and_boot(build_kernel(KernelConfig(ticks_to_run=8)))
        session.attach()
        return session

    def _restorable_state(self, session):
        """What a restore brings back: ``machine_state`` without the
        clock keys, plus both queues of the debug link."""
        from repro.core.snapshot import CLOCK_KEYS, machine_state
        state = machine_state(session.machine, session.monitor)
        for key in CLOCK_KEYS:
            del state[key]
        state["serial"] = session.machine.serial_link.state()
        return state

    def test_capture_records_device_state(self):
        from repro.core.snapshot import capture
        session = self._booted_session()
        session.run_guest(2_000)
        snap = capture(session.machine, session.monitor)
        for field in ("pit", "rtc", "uart", "hba"):
            assert snap.state[field] is not None, field
        assert snap.serial is not None
        assert snap.state["pit"]["channels"][0]["reload"] \
            == session.machine.pit.state()["channels"][0]["reload"]

    def test_device_state_round_trips(self):
        from repro.core.snapshot import capture, restore
        session = self._booted_session()
        session.run_guest(2_000)
        snap = capture(session.machine, session.monitor)
        before = self._restorable_state(session)
        session.run_guest(5_000)          # perturb everything
        assert self._restorable_state(session) != before
        restore(session.machine, snap, session.monitor)
        assert self._restorable_state(session) == before

    def test_rerun_after_restore_is_deterministic(self):
        """With timers restored, re-execution takes the same path —
        the property record/replay checkpointing depends on.  Restore
        never rewinds simulated time, so the comparison leaves out the
        clock keys (device state dicts store remaining delays, not
        absolute due times)."""
        import hashlib
        from repro.core.snapshot import capture, restore

        def relative_state(session):
            memory = session.machine.memory
            return (self._restorable_state(session),
                    hashlib.sha256(memory.view()).hexdigest())

        session = self._booted_session()
        session.run_guest(2_000)
        snap = capture(session.machine, session.monitor)
        session.run_guest(3_000)
        first = relative_state(session)
        restore(session.machine, snap, session.monitor)
        session.run_guest(3_000)
        assert relative_state(session) == first


class TestCheckpointStoreBounds:
    """The checkpoint store is bounded: LRU eviction by count and
    held bytes, with eviction accounting."""

    class _FakeSnapshot:
        def __init__(self, size):
            self.size_bytes = size

    def test_count_cap_evicts_lru(self):
        from repro.core.snapshot import CheckpointStore
        store = CheckpointStore(max_snapshots=2)
        store.save("a", self._FakeSnapshot(10))
        store.save("b", self._FakeSnapshot(10))
        store.get("a")                    # refresh 'a'
        store.save("c", self._FakeSnapshot(10))
        assert store.evictions == 1
        store.get("a")                    # survived (recently used)
        store.get("c")
        with pytest.raises(MonitorError):
            store.get("b")                # the LRU entry went

    def test_byte_cap_evicts_until_under(self):
        from repro.core.snapshot import CheckpointStore
        store = CheckpointStore(max_snapshots=None, max_bytes=100)
        for name in "abc":
            store.save(name, self._FakeSnapshot(40))
        assert store.held_bytes <= 100
        assert store.evictions == 1
        with pytest.raises(MonitorError):
            store.get("a")

    def test_never_evicts_only_entry(self):
        from repro.core.snapshot import CheckpointStore
        store = CheckpointStore(max_snapshots=1, max_bytes=10)
        store.save("huge", self._FakeSnapshot(10_000))
        assert store.get("huge") is not None
        assert store.evictions == 0

    def test_resave_same_name_not_an_eviction(self):
        from repro.core.snapshot import CheckpointStore
        store = CheckpointStore(max_snapshots=2)
        store.save("a", self._FakeSnapshot(10))
        store.save("a", self._FakeSnapshot(20))
        assert store.evictions == 0
        assert store.held_bytes == 20

    def test_stats_shape(self):
        from repro.core.snapshot import CheckpointStore
        store = CheckpointStore(max_snapshots=4, max_bytes=1000)
        store.save("a", self._FakeSnapshot(10))
        stats = store.stats()
        assert stats == {"snapshots": 1, "held_bytes": 10,
                         "max_snapshots": 4, "max_bytes": 1000,
                         "evictions": 0}

    def test_invalid_capacity_rejected(self):
        from repro.core.snapshot import CheckpointStore
        with pytest.raises(MonitorError):
            CheckpointStore(max_snapshots=0)
