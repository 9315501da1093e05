"""Integration: the supervised debugging fleet.

Real worker processes (spawn context), real pipes, real sockets — these
tests exercise the control plane the way ``repro-fleet up`` runs it:
dispatch, retry, dead-letter, crash/hang supervision, the degradation
ladder, the RSP mux and the control protocol.
"""

import json
import socket
import threading
import time

import pytest

from repro.fleet.control import ControlServer, control_request, \
    job_from_spec
from repro.fleet.dashboard import build_dashboard, export_dashboard, \
    format_status
from repro.fleet.jobs import (Job, RetrySchedule, STATUS_DEAD_LETTER,
                              STATUS_DONE, STATUS_PENDING,
                              STATUS_RUNNING, STATUS_SHED)
from repro.fleet.mux import FleetMux
from repro.fleet.supervisor import (FLEET_DEGRADED, FLEET_FULL, Fleet,
                                    FleetConfig, SLOT_IDLE)
from repro.fleet.worker import run_exec_slices
from repro.obs.metrics import global_registry
from repro.rsp.packets import frame

#: Fast heartbeats keep the tests snappy; the hang timeout stays large
#: except where a test is explicitly about hang detection.
FAST = dict(heartbeat_interval=0.05, hang_timeout=30.0)

#: A quick retry schedule for retry-path tests.
QUICK_RETRY = RetrySchedule(max_attempts=2, backoff_base_s=0.05,
                            multiplier=2.0, backoff_max_s=0.2)


@pytest.fixture
def make_fleet():
    fleets = []

    def _make(**overrides):
        settings = dict(FAST)
        settings.update(overrides)
        fleet = Fleet(FleetConfig(**settings)).start()
        fleets.append(fleet)
        assert fleet.wait_ready(timeout=60.0), \
            "fleet never became ready"
        return fleet

    yield _make
    for fleet in fleets:
        fleet.shutdown()


def poll_until(fleet, condition, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        fleet.poll()
        if condition():
            return True
        time.sleep(interval)
    return False


class TestFleetJobs:
    def test_jobs_dispatch_retry_and_dead_letter(self, make_fleet):
        fleet = make_fleet(workers=2)
        ok = fleet.submit(Job(kind="noop", params={}))
        flaky = fleet.submit(Job(
            kind="noop", params={"fail_below_attempt": 2},
            retry=QUICK_RETRY))
        doomed = fleet.submit(Job(
            kind="noop", params={"fail_below_attempt": 99},
            retry=QUICK_RETRY))
        assert fleet.run_until_idle(timeout=60.0)

        assert ok.status == STATUS_DONE
        assert ok.result == {"attempt": 1}
        # The flaky job failed once, backed off, succeeded on retry.
        assert flaky.status == STATUS_DONE
        assert flaky.attempts == 2
        assert flaky.result == {"attempt": 2}
        # The doomed job exhausted its attempts and was kept, not lost.
        assert doomed.status == STATUS_DEAD_LETTER
        assert doomed in fleet.queue.dead_letter
        assert "scripted failure" in doomed.error
        assert fleet.level == FLEET_FULL

    def test_exec_slices_matches_in_process_reference(self, make_fleet):
        """A worker-run campaign produces byte-identical checkpoint
        digests to the same campaign run in-process."""
        fleet = make_fleet(workers=1)
        params = {"slices": 3, "slice_insns": 800, "seed": 7}
        record = fleet.submit(Job(kind="exec-slices", params=params,
                                  timeout_s=120.0))
        assert fleet.run_until_idle(timeout=120.0)
        assert record.status == STATUS_DONE
        reference = run_exec_slices(dict(params))
        assert record.result["digests"] == reference["digests"]
        assert len(record.result["digests"]) == 3
        assert record.result["instret"] == reference["instret"]
        assert not record.result["resumed"]

    @pytest.mark.parametrize("workers, speedup", [(2, 1.5), (4, 3.0)])
    def test_think_time_overlaps_across_workers(self, make_fleet, workers,
                                                speedup):
        """N paced exec-slices jobs on an N-worker fleet run at once:
        each lands on its own worker, at some poll all N slots hold a
        job, and the batch beats the serial think-time floor by
        ``speedup``."""
        fleet = make_fleet(workers=workers)
        # Think time dominates a job, so the bound reads dispatch
        # concurrency, not host speed.
        params = {"slices": 8, "slice_insns": 300, "think_ms": 300,
                  "record": False}
        serial_think_s = workers * params["slices"] \
            * params["think_ms"] / 1000.0
        # A worker's first job pays its lazy imports (~0.2 s of CPU
        # each, and the workers share the host's cores): one unpaced
        # job per worker pays them before the clock starts.
        for _ in range(workers):
            fleet.submit(Job(kind="exec-slices",
                             params=dict(params, slices=1, think_ms=0),
                             timeout_s=60.0))
        assert poll_until(fleet, lambda: fleet.queue.idle, timeout=60.0)
        start = time.monotonic()
        records = [fleet.submit(Job(kind="exec-slices",
                                    params=dict(params), timeout_s=60.0))
                   for _ in range(workers)]
        placed, most_busy = {}, 0
        while not fleet.queue.idle and time.monotonic() < start + 60.0:
            fleet.poll()
            for record in records:
                if record.worker is not None:
                    placed[record.id] = record.worker
            most_busy = max(most_busy, sum(slot.job is not None
                                           for slot in fleet.slots))
            # A coarse poll leaves the host's CPUs to the workers.
            time.sleep(0.02)
        elapsed = time.monotonic() - start
        assert all(record.status == STATUS_DONE for record in records)
        assert len(set(placed.values())) == workers, placed
        assert most_busy == workers
        assert elapsed <= serial_think_s / speedup, \
            (elapsed, serial_think_s)

    def test_status_and_dashboard_reflect_the_fleet(self, make_fleet,
                                                    tmp_path):
        fleet = make_fleet(workers=2)
        fleet.submit(Job(kind="noop", params={}))
        assert fleet.run_until_idle(timeout=60.0)
        # Wait for a heartbeat that post-dates the completed job, so
        # the supervisor's metrics view includes it.
        assert poll_until(
            fleet, lambda: (fleet.obs.aggregator.value(
                "worker.jobs.completed") or 0) >= 1)

        status = fleet.status()
        assert status["level"] == FLEET_FULL
        assert len(status["workers"]) == 2
        assert status["jobs"][STATUS_DONE] == 1

        text = format_status(fleet)
        assert text.startswith("ladder: full-service")
        assert "workers: 2/2 healthy" in text

        dashboard = export_dashboard(fleet, tmp_path / "dash.json")
        on_disk = json.loads((tmp_path / "dash.json").read_text())
        assert on_disk["level"] == dashboard["level"] == FLEET_FULL
        # Per-worker metrics aggregate across the heartbeat snapshots.
        assert fleet.obs.aggregator.value("worker.jobs.completed") >= 1
        assert on_disk["fleet_metrics"]["worker.jobs.completed"][
            "value"] >= 1
        assert "fleet.ladder.level" in dashboard["supervisor_metrics"]


class TestFleetSupervision:
    def test_crashed_worker_is_restarted(self, make_fleet):
        fleet = make_fleet(workers=1, max_restarts=2)
        slot = fleet.slots[0]
        first_pid = slot.pid
        slot.conn.send({"op": "crash"})
        assert poll_until(fleet, lambda: slot.restarts == 1
                          and slot.status == SLOT_IDLE)
        assert slot.pid != first_pid
        # The replacement serves jobs like nothing happened.
        record = fleet.submit(Job(kind="noop", params={}))
        assert fleet.run_until_idle(timeout=60.0)
        assert record.status == STATUS_DONE
        assert fleet.level == FLEET_FULL

    def test_hung_worker_is_detected_and_replaced(self, make_fleet):
        fleet = make_fleet(workers=1, hang_timeout=0.5, max_restarts=2)
        hangs = global_registry().counter("fleet.hangs")
        before = hangs.value
        fleet.slots[0].conn.send({"op": "hang"})
        assert poll_until(fleet, lambda: fleet.slots[0].restarts == 1
                          and fleet.slots[0].status == SLOT_IDLE)
        assert hangs.value == before + 1

    def test_wedged_job_times_out_and_charges_the_job(self, make_fleet):
        fleet = make_fleet(workers=1, max_restarts=2)
        record = fleet.submit(Job(
            kind="noop", params={"sleep_ms": 5_000}, timeout_s=0.3,
            retry=RetrySchedule(max_attempts=1)))
        assert fleet.run_until_idle(timeout=60.0)
        assert record.status == STATUS_DEAD_LETTER
        assert record.error == "job timeout"
        # The worker was killed with the wedged machine and respawned.
        assert poll_until(fleet, lambda: fleet.slots[0].restarts == 1
                          and fleet.slots[0].status == SLOT_IDLE)


class TestFleetDegradation:
    def test_lost_workers_degrade_shed_and_keep_serving(self,
                                                        make_fleet):
        """Half the fleet dies with restarts disabled: the ladder goes
        degraded, low-priority work is shed, high-priority work and
        RSP service continue on the survivors."""
        fleet = make_fleet(workers=4, restart=False)
        mux = FleetMux(fleet, "127.0.0.1", 0)

        # Occupy every worker so the low-priority job stays *pending*
        # (only pending work is sheddable).
        one_shot = RetrySchedule(max_attempts=1)
        for _ in range(4):
            fleet.submit(Job(kind="noop", params={"sleep_ms": 2_000},
                             priority=9, retry=one_shot))
        assert poll_until(
            fleet,
            lambda: fleet.queue.counts()[STATUS_RUNNING] == 4)
        low_early = fleet.submit(Job(kind="noop", params={},
                                     priority=1, retry=one_shot))
        fleet.poll()
        assert low_early.status == STATUS_PENDING

        fleet.kill_worker(2)
        fleet.kill_worker(3)
        assert poll_until(fleet, lambda: fleet.level == FLEET_DEGRADED)

        # Pending low-priority work was shed on the transition...
        assert low_early.status == STATUS_SHED
        # ...and new low-priority work is shed at intake.
        low_late = fleet.submit(Job(kind="noop", params={},
                                    priority=1))
        fleet.poll()
        assert low_late.status == STATUS_SHED
        # High-priority work still runs to completion.
        high = fleet.submit(Job(kind="noop", params={}, priority=9))
        assert fleet.run_until_idle(timeout=60.0)
        assert high.status == STATUS_DONE

        # RSP sessions are still served through the mux.
        with socket.create_connection(mux.address, timeout=5) as sock:
            sock.settimeout(0.01)
            reply = _mux_exchange(fleet, sock, b"?")
            assert reply.endswith(b"$S05#b8")

        # The verdict is visible everywhere an operator looks.
        assert "ladder: degraded" in format_status(fleet)
        assert fleet.status()["level"] == FLEET_DEGRADED
        assert global_registry().gauge("fleet.ladder.level").value == 1
        assert build_dashboard(fleet)["transitions"][-1]["to"] \
            == FLEET_DEGRADED


def _mux_exchange(fleet, sock, payload, timeout=30.0):
    """Send one RSP packet through the mux, polling the fleet until the
    pinned worker's reply comes back."""
    sock.sendall(frame(payload))
    received = bytearray()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        fleet.poll()
        try:
            chunk = sock.recv(4096)
        except (BlockingIOError, socket.timeout):
            chunk = b""
        if chunk:
            received.extend(chunk)
            if b"#" in received[received.find(b"$"):]:
                tail = received[received.find(b"$"):]
                if len(tail) >= tail.find(b"#") + 3:
                    sock.sendall(b"+")
                    return bytes(received)
        time.sleep(0.002)
    raise AssertionError(f"no mux reply to {payload!r}; "
                         f"got {bytes(received)!r}")


class TestFleetMux:
    def test_sessions_survive_reconnects(self, make_fleet):
        fleet = make_fleet(workers=1)
        mux = FleetMux(fleet, "127.0.0.1", 0)
        with socket.create_connection(mux.address, timeout=5) as sock:
            sock.settimeout(0.01)
            assert _mux_exchange(fleet, sock, b"?").endswith(b"$S05#b8")
            # The resident session knows which worker it lives in.
            info = b"qRcmd," + b"fleet".hex().encode()
            reply = _mux_exchange(fleet, sock, info)
            assert b"worker" in bytes.fromhex(
                reply[reply.find(b"$") + 1:reply.find(b"#")]
                .decode("ascii"))
        # Client is gone; the mux notices and frees the worker.
        assert poll_until(fleet, lambda: not mux._sessions)
        # A second client lands on the same worker and is served.
        with socket.create_connection(mux.address, timeout=5) as sock:
            sock.settimeout(0.01)
            assert _mux_exchange(fleet, sock, b"?").endswith(b"$S05#b8")
        assert mux.accepted == 2

    def test_clients_beyond_capacity_are_refused(self, make_fleet):
        fleet = make_fleet(workers=1)
        mux = FleetMux(fleet, "127.0.0.1", 0)
        with socket.create_connection(mux.address, timeout=5) as first:
            first.settimeout(0.01)
            assert _mux_exchange(fleet, first, b"?") \
                .endswith(b"$S05#b8")
            with socket.create_connection(mux.address,
                                          timeout=5) as second:
                second.settimeout(5)
                assert poll_until(fleet, lambda: mux.refused == 1)
                # The refused client sees a closed connection.
                assert second.recv(1) == b""


def _control(fleet, server, payload):
    """One control round trip while this thread keeps polling."""
    box = {}

    def request():
        box["reply"] = control_request(server.address, payload)

    thread = threading.Thread(target=request, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30.0
    while thread.is_alive() and time.monotonic() < deadline:
        fleet.poll()
        server.poll()
        time.sleep(0.002)
    thread.join(timeout=1.0)
    assert "reply" in box, "control request never completed"
    return box["reply"]


class TestControlServer:
    def test_status_submit_drain_kill(self, make_fleet):
        fleet = make_fleet(workers=1, max_restarts=1)
        server = ControlServer(fleet, "127.0.0.1", 0)
        try:
            reply = _control(fleet, server, {"op": "status"})
            assert reply["ok"]
            assert reply["status"]["level"] == FLEET_FULL
            assert reply["dashboard"]["jobs"]["pending"] == 0

            reply = _control(fleet, server, {
                "op": "submit",
                "job": {"kind": "noop", "params": {}, "priority": 8}})
            assert reply["ok"]
            record = fleet.queue.records[reply["id"]]
            assert fleet.run_until_idle(timeout=60.0)
            assert record.status == STATUS_DONE

            reply = _control(fleet, server, {"op": "drain"})
            assert reply["ok"] and fleet.draining

            pid = fleet.slots[0].pid
            reply = _control(fleet, server, {"op": "kill", "worker": 0})
            assert reply["ok"]
            assert poll_until(fleet,
                              lambda: fleet.slots[0].pid != pid
                              and fleet.slots[0].status == SLOT_IDLE)

            reply = _control(fleet, server, {"op": "frobnicate"})
            assert not reply["ok"]
            assert "unknown op" in reply["error"]
        finally:
            server.close()

    def test_job_from_spec_builds_full_jobs(self):
        job = job_from_spec({
            "kind": "chaos", "params": {"scenario": "wild-writes"},
            "priority": 7, "timeout_s": 120,
            "retry": {"max_attempts": 5, "backoff_base_s": 0.5},
            "max_resumes": 1})
        assert job.kind == "chaos"
        assert job.priority == 7
        assert job.timeout_s == 120.0
        assert job.retry.max_attempts == 5
        assert job.retry.backoff_s(2) == 1.0
        assert job.max_resumes == 1
