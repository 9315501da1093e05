"""One fleet worker: a crash-isolated process running one machine.

The worker owns at most one job machine (built per job) plus one
resident RSP debug session (built lazily when the mux routes a client
here), both fully inside this process — a crash takes down *one*
worker, never the fleet.  All communication with the supervisor runs
over a single duplex pipe carrying JSON-compatible dicts:

supervisor → worker:
  ``{"op": "job", "id", "kind", "params", "attempt", "spool",
     "resume"}`` — run a job (``resume`` replays journals first);
  ``{"op": "rsp", "data": <hex>}`` — client bytes for the resident
  debug session;  ``{"op": "rsp-detach"}`` — the mux client left;
  ``{"op": "ping"}``, ``{"op": "stop"}`` — liveness / graceful exit;
  ``{"op": "hang"}`` / ``{"op": "crash"}`` — fault hooks for
  supervision tests (silent heartbeat stop / ``os._exit(3)``).

worker → supervisor:
  ``{"ev": "hello", "pid"}`` once ready;
  ``{"ev": "heartbeat", "seq", "job", "progress", "metrics"}`` every
  ``heartbeat_interval`` seconds, carrying the worker's whole
  :func:`~repro.obs.metrics.global_registry` snapshot — health and
  observability ride the same message;
  ``{"ev": "result", "id", "ok", "value" | "error"}`` per job;
  ``{"ev": "rsp", "data": <hex>}`` — target bytes for the mux.

``exec-slices`` is the *recoverable* job kind: it runs a deterministic
guest in fixed instruction slices under a :class:`FlightRecorder`
spooling to disk (fsync at every frame boundary), one checkpoint
digest per slice.  When the supervisor restarts a killed worker it
sends the journal paths in ``resume``: the worker replays the original
journal with any continuation journals appended (one relaxed walk),
takes the recorded checkpoint digests (or the replay's final digest
for a slice killed before its checkpoint), then attaches a fresh
recorder and keeps going — the resumed run's checkpoint digests are
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from typing import Dict, List, Optional

#: Pump quanta granted to the resident RSP session per inbound batch.
RSP_PUMP_CREDIT = 50
#: Pipe poll interval when idle (seconds); busy loops poll at 0.
IDLE_POLL_S = 0.02


def _ensure_path(cfg: Dict) -> None:
    for entry in cfg.get("sys_path", []):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# ----------------------------------------------------------------------
# Job implementations
# ----------------------------------------------------------------------

def _exec_guest_program(params: Dict):
    """The deterministic exec-slices guest: an endless NOP loop, so a
    slice of N instructions always retires exactly N."""
    from repro.asm import assemble
    from repro.hw import firmware
    body = params.get("guest_body", "loop:\n    NOP\n    JMP loop")
    return assemble(f".org {firmware.GUEST_KERNEL_BASE}\n{body}\n")


class ExecSlices:
    """A recoverable deterministic execution campaign.

    Fresh: build machine + LVMM, attach a spooling recorder *before*
    boot, then run ``slices`` slices of ``slice_insns`` instructions,
    checkpointing every slice.  Resumed: rebuild from the journals,
    then continue the remaining slices under a continuation recorder.
    ``think_ms`` sleeps between slices model interactive client think
    time; a sleeping worker leaves the host CPU to the others, so paced
    jobs overlap across workers (``tests/integration/test_fleet.py``
    checks it).
    """

    def __init__(self, params: Dict, spool: Optional[str] = None,
                 resume: Optional[Dict] = None,
                 spool_fsync: bool = True) -> None:
        self.params = params
        self.slices = int(params.get("slices", 8))
        self.slice_insns = int(params.get("slice_insns", 2000))
        self.think_ms = float(params.get("think_ms", 0.0))
        self.record = bool(params.get("record", True))
        self.digests: List[str] = []
        self.done = 0
        self.resumed = resume is not None
        self.recorder = None
        if resume is not None:
            self._build_resumed(resume, spool_fsync)
        else:
            self._build_fresh(spool, spool_fsync)

    # -- construction --------------------------------------------------------

    def _build_fresh(self, spool: Optional[str],
                     spool_fsync: bool) -> None:
        from repro.hw.machine import Machine, MachineConfig
        from repro.vmm.monitor import LightweightVmm
        self.machine = Machine(MachineConfig())
        self.monitor = LightweightVmm(self.machine)
        self.monitor.install()
        program = _exec_guest_program(self.params)
        if self.record:
            from repro.replay.recorder import FlightRecorder
            self.recorder = FlightRecorder(
                self.machine, self.monitor, program=program,
                scenario="fleet-exec",
                seed=self.params.get("seed"),
                checkpoint_every=1, spool=spool,
                spool_fsync=spool_fsync)
        program.load_into(self.machine.memory)
        self.monitor.boot_guest(program.origin)
        self.monitor.stopped = True

    def _build_resumed(self, resume: Dict, spool_fsync: bool) -> None:
        from repro.replay.journal import load_journal
        from repro.replay.recorder import FlightRecorder
        from repro.replay.replayer import Replayer

        # Continuation spools begin mid-stream (no bootable header):
        # they replay as the original journal's tail, in one walk.
        journal = load_journal(resume["journal"])
        for path in resume.get("continuations", []):
            journal.frames += load_journal(path).frames
        replayer = Replayer(journal, strict=False)
        replay = replayer.run()
        replayer.detach()
        self.machine = replayer.machine
        self.monitor = replayer.monitor
        digests = [frame.data["digest"] for frame in journal.frames
                   if frame.kind == "checkpoint"]
        runs = sum(1 for frame in journal.frames if frame.kind == "run")
        if len(digests) < runs:
            # Killed between a run frame and its checkpoint: the state
            # is still exact, only the digest frame is missing — the
            # replay's own final digest is that checkpoint.
            digests.append(replay.final_digest)
        self.digests = digests[:runs]
        self.done = runs
        # Takes over the replay's finished recorder, and with it the
        # rolling target-to-host digest.
        self.recorder = FlightRecorder(
            self.machine, self.monitor, scenario="fleet-exec-cont",
            seed=self.params.get("seed"), checkpoint_every=1,
            spool=resume.get("spool"), spool_fsync=spool_fsync,
            version=journal.version)

    # -- stepping ------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.done >= self.slices

    def step(self) -> None:
        """One slice: run, checkpoint, think."""
        self.monitor.stopped = False
        self.monitor.run(self.slice_insns)
        if self.recorder is not None:
            # checkpoint_every=1 fired inside run-end; the digest is
            # the newest checkpoint frame.
            self.digests.append(self.recorder.frames[-1].data["digest"])
        self.done += 1
        if self.think_ms > 0:
            time.sleep(self.think_ms / 1000.0)

    def result(self) -> Dict:
        if self.recorder is not None and not self.recorder.finished:
            self.recorder.finish()
        return {"slices": self.done,
                "instret": self.machine.cpu.instret,
                "digests": self.digests,
                "resumed": self.resumed}


def run_exec_slices(params: Dict) -> Dict:
    """In-process reference run (tests and benchmarks compare against
    this uninterrupted execution)."""
    job = ExecSlices(params)
    while not job.finished:
        job.step()
    return job.result()


def _run_chaos(params: Dict) -> Dict:
    from repro.faults.campaign import run_scenario
    result = run_scenario(params.get("scenario", "wild-writes"),
                          int(params.get("seed", 1234)),
                          record=bool(params.get("record", False)))
    return {"scenario": result["scenario"], "seed": result["seed"],
            "ok": result["ok"], "violations": result["violations"],
            "trace_digest": result["trace_digest"]}


def _run_replay(params: Dict) -> Dict:
    from repro.replay import bisect_divergence, load_journal, \
        replay_journal
    journal = load_journal(params["journal"])
    if params.get("bisect"):
        report = bisect_divergence(journal)
        return {"bisect": report.to_dict() if report else None}
    result = replay_journal(journal,
                            strict=bool(params.get("strict", True)))
    return result.stats()


def _run_stream(params: Dict) -> Dict:
    from repro.faults.campaign import _run_streaming
    machine, guest = _run_streaming(lambda m: None)
    return {"segments_sent": guest.segments_sent,
            "cycles": machine.queue.now}


def _run_noop(params: Dict, attempt: int) -> Dict:
    """Scheduling-test job: optionally sleep, optionally fail early
    attempts so retry/backoff paths can be exercised."""
    sleep_ms = float(params.get("sleep_ms", 0))
    if sleep_ms:
        time.sleep(sleep_ms / 1000.0)
    fail_below = int(params.get("fail_below_attempt", 0))
    if attempt < fail_below:
        raise RuntimeError(f"scripted failure on attempt {attempt}")
    return {"attempt": attempt}


# ----------------------------------------------------------------------
# The worker loop
# ----------------------------------------------------------------------

class FleetWorker:
    """Event loop around the command pipe."""

    def __init__(self, conn, worker_id: int, cfg: Dict) -> None:
        self.conn = conn
        self.worker_id = worker_id
        self.cfg = cfg
        self.hb_interval = float(cfg.get("heartbeat_interval", 0.1))
        self.spool_fsync = bool(cfg.get("spool_fsync", True))
        self.session = None
        self.rsp_credit = 0
        self.job: Optional[ExecSlices] = None
        self.job_id: Optional[str] = None
        self.heartbeats = 0
        self._mute_heartbeats = False
        self._stop = False
        from repro.obs.metrics import global_registry
        registry = global_registry()
        #: Distributed tracing (supervisor opted in via cfg["trace"]):
        #: spans land on a local bus and ship with heartbeats/results.
        self.spans = None
        self._rsp_parent: Optional[str] = None
        if cfg.get("trace"):
            from repro.obs.distributed.spans import WorkerSpanRecorder
            self.spans = WorkerSpanRecorder(worker_id,
                                            registry=registry)
        self._jobs_done = registry.counter("worker.jobs.completed")
        self._jobs_failed = registry.counter("worker.jobs.failed")
        self._slices = registry.counter("worker.slices.executed")
        self._rsp_in = registry.counter("worker.rsp.bytes_in")
        self._rsp_out = registry.counter("worker.rsp.bytes_out")
        signal.signal(signal.SIGTERM, self._on_sigterm)

    # -- signals -------------------------------------------------------------

    def _on_sigterm(self, _signum, _frame) -> None:
        # Seal the spool so a politely-terminated worker leaves a
        # clean journal, then exit with the SIGTERM convention.
        job = self.job
        if job is not None and job.recorder is not None \
                and job.recorder.writer is not None:
            job.recorder.writer.close()
        os._exit(143)

    # -- plumbing ------------------------------------------------------------

    def _send(self, event: Dict) -> None:
        try:
            self.conn.send(event)
        except (BrokenPipeError, OSError):
            # Supervisor is gone; nothing left to serve.
            os._exit(0)

    def _heartbeat(self) -> None:
        if self._mute_heartbeats:
            return
        from repro.obs.metrics import global_registry
        self.heartbeats += 1
        event = {"ev": "heartbeat", "seq": self.heartbeats,
                 "job": self.job_id,
                 "progress": self.job.done if self.job else 0,
                 "metrics": global_registry().snapshot()}
        if self.spans is not None:
            batch = self.spans.drain()
            if batch:
                event["spans"] = batch
        self._send(event)

    # -- the resident debug session ------------------------------------------

    def _ensure_session(self):
        if self.session is not None:
            return self.session
        from repro.debugger.gdbserver import _build_session
        self.session = _build_session(self.cfg.get("guest", "kernel"))
        self.session.monitor.fleet_info = {
            "worker": self.worker_id,
            "pid": os.getpid(),
            "guest": self.cfg.get("guest", "kernel"),
        }
        return self.session

    def _pump_session(self) -> None:
        sess = self.session
        if sess is None:
            return
        running = not sess.monitor.stopped \
            and not sess.monitor.guest_dead
        if self.rsp_credit <= 0 and not running:
            return
        sess._pump()
        if self.rsp_credit > 0:
            self.rsp_credit -= 1
        out = sess._host_port.recv()
        if out:
            self._rsp_out.inc(len(out))
            if self.spans is not None and self.spans.rsp_ctx is not None:
                self.spans.note_rsp("out", len(out),
                                    sess.monitor.machine)
            self._send({"ev": "rsp", "data": out.hex()})

    # -- command dispatch ----------------------------------------------------

    def _start_job(self, message: Dict) -> None:
        self.job_id = message["id"]
        kind = message["kind"]
        params = message.get("params", {})
        attempt = int(message.get("attempt", 1))
        trace = message.get("trace") if self.spans is not None else None
        try:
            if kind == "exec-slices":
                self.job = ExecSlices(params,
                                      spool=message.get("spool"),
                                      resume=message.get("resume"),
                                      spool_fsync=self.spool_fsync)
                if trace:
                    self.spans.start_job(trace, self.job_id,
                                         machine=self.job.machine)
                return   # stepped from the main loop
            if trace:
                # Synchronous kinds have no job machine of their own;
                # the span anchors the trace at clock 0.
                self.spans.start_job(trace, self.job_id)
            if kind == "chaos":
                value = _run_chaos(params)
            elif kind == "replay":
                value = _run_replay(params)
            elif kind == "stream":
                value = _run_stream(params)
            elif kind == "noop":
                value = _run_noop(params, attempt)
            else:
                raise ValueError(f"unknown job kind {kind!r}")
        except Exception as exc:   # noqa: BLE001 — crash isolation
            self._finish_job(ok=False, error=f"{type(exc).__name__}: "
                                             f"{exc}")
            return
        self._finish_job(ok=True, value=value)

    def _finish_job(self, ok: bool, value: Optional[Dict] = None,
                    error: Optional[str] = None) -> None:
        event = {"ev": "result", "id": self.job_id, "ok": ok}
        if ok:
            event["value"] = value
            self._jobs_done.inc()
        else:
            event["error"] = error
            self._jobs_failed.inc()
        # The result is the flush point: the closing metrics snapshot
        # (and, when tracing, the remaining spans) travel with the
        # outcome, so the supervisor's fleet view of a finished job is
        # complete (and deterministic) without waiting for a heartbeat.
        from repro.obs.metrics import global_registry
        if self.spans is not None:
            machine = getattr(self.job, "machine", None)
            self.spans.finish_job(ok, machine=machine)
            event["spans"] = self.spans.drain()
        event["metrics"] = global_registry().snapshot()
        self.job = None
        self.job_id = None
        self._send(event)

    def _handle(self, message: Dict) -> None:
        op = message.get("op")
        if op == "job":
            if self.job_id is not None:
                self._send({"ev": "result", "id": message["id"],
                            "ok": False,
                            "error": "worker already busy"})
                return
            self._start_job(message)
        elif op == "rsp":
            data = bytes.fromhex(message["data"])
            self._rsp_in.inc(len(data))
            self._ensure_session()._host_port.send(data)
            self.rsp_credit = RSP_PUMP_CREDIT
            if self.spans is not None:
                encoded = message.get("trace")
                if encoded and encoded != self._rsp_parent:
                    self._rsp_parent = encoded
                    self.spans.bind_rsp(encoded)
                if self.spans.rsp_ctx is not None:
                    self.spans.note_rsp(
                        "in", len(data), self.session.monitor.machine)
        elif op == "rsp-detach":
            self.rsp_credit = 0
            self._rsp_parent = None
            if self.spans is not None:
                self.spans.rsp_ctx = None
        elif op == "ping":
            self._send({"ev": "pong"})
        elif op == "stop":
            self._stop = True
        elif op == "hang":
            # Supervision-test hook: stay alive, go silent.
            self._mute_heartbeats = True
        elif op == "crash":
            os._exit(3)

    def _step_job(self) -> None:
        """One job slice, wrapped in a traced span when tracing is on."""
        job = self.job
        spans = self.spans
        traced = spans is not None and spans.job_ctx is not None
        if traced:
            machine = job.machine
            start_cycle = spans.clock(machine)
            start_instret = machine.cpu.instret
        job.step()
        if traced:
            spans.note_slice(job.done - 1, start_cycle,
                             spans.clock(machine),
                             machine.cpu.instret - start_instret)
        self._slices.inc()
        if job.finished:
            self._finish_job(ok=True, value=job.result())

    # -- main loop -----------------------------------------------------------

    def run(self) -> int:
        self._send({"ev": "hello", "pid": os.getpid(),
                    "worker": self.worker_id})
        last_hb = time.monotonic()
        while not self._stop:
            busy = self.job is not None or self.rsp_credit > 0 \
                or (self.session is not None
                    and not self.session.monitor.stopped
                    and not self.session.monitor.guest_dead)
            timeout = 0 if busy else IDLE_POLL_S
            try:
                while self.conn.poll(timeout):
                    self._handle(self.conn.recv())
                    timeout = 0
            except (EOFError, OSError):
                break   # supervisor went away
            if self.job is not None:
                try:
                    self._step_job()
                except Exception as exc:   # noqa: BLE001
                    self._finish_job(
                        ok=False,
                        error=f"{type(exc).__name__}: {exc}")
            self._pump_session()
            now = time.monotonic()
            if now - last_hb >= self.hb_interval:
                self._heartbeat()
                last_hb = now
        job = self.job
        if job is not None and job.recorder is not None \
                and job.recorder.writer is not None:
            job.recorder.writer.close()
        self._send({"ev": "bye"})
        return 0


def worker_main(conn, worker_id: int, cfg: Dict) -> None:
    """Spawn entry point (must stay module-level picklable)."""
    _ensure_path(cfg)
    worker = FleetWorker(conn, worker_id, cfg)
    sys.exit(worker.run())
