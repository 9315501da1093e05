"""Multi-session streaming server — HiTactix's production scenario.

The paper's intro motivates the whole system with streaming appliance
servers (HiTactix powers the cost-effective streaming server of Le Moal
et al., ACM MM'02).  A server does not push one flow: it serves many
clients at fixed per-session rates (think N concurrent video streams).

:class:`StreamingServer` extends the single-flow HiTactix model with
per-session token buckets over the shared disk pipeline and NIC, so the
evaluation question becomes the operator's question: *how many streams
of rate r fit on each execution stack before CPU saturates?* — the
admission-control view of Fig. 3.1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.guest.os import HiTactix
from repro.hw.nic import LINE_RATE_BPS, WIRE_OVERHEAD_BYTES
from repro.net.tcp import TcpConnection, TcpEndpoint
from repro.perf.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.perf.load import build_stack
from repro.sim.events import EventQueue, cycles_for_seconds


@dataclass
class StreamSession:
    """One client stream."""

    session_id: int
    rate_bps: float
    tokens: float = 0.0
    bytes_sent: int = 0
    segments_sent: int = 0

    @property
    def achieved_bps(self) -> float:
        return self._achieved

    _achieved: float = 0.0


class StreamingServer(HiTactix):
    """HiTactix serving several fixed-rate sessions concurrently."""

    def __init__(self, machine, stack, sessions: Sequence[float],
                 cost: Optional[CostModel] = None, **kwargs) -> None:
        total = sum(sessions)
        super().__init__(machine, stack, total, cost, **kwargs)
        self.sessions = [StreamSession(index, rate)
                         for index, rate in enumerate(sessions)]
        # Seed each bucket with one segment so streams start immediately
        # (a real server begins sending as soon as a client connects).
        for session in self.sessions:
            session.tokens = float(self.segment_size)
        self._next_session = 0

    def on_tick(self) -> None:
        self.ticks += 1
        self.stack.guest_cycles(self.cost.guest_tick_cycles)
        for session in self.sessions:
            session.tokens += session.rate_bps / 8.0 / self.cost.timer_hz
            session.tokens = min(session.tokens, 2.0 * self.segment_size)
        self._pump_sessions()
        self.machine.bus.port_write(0x20, 0x20, 1)  # timer EOI

    def _pump_sender(self) -> None:
        # Called from the SCSI ISR when data lands: serve ready sessions.
        self._pump_sessions()

    def _pump_sessions(self) -> None:
        """Round-robin across sessions with a full token bucket."""
        stalled = 0
        count = len(self.sessions)
        while stalled < count:
            session = self.sessions[self._next_session]
            self._next_session = (self._next_session + 1) % count
            if session.tokens < self.segment_size:
                stalled += 1
                continue
            segment = self._blocked_segment or self._next_segment()
            self._blocked_segment = None
            if segment is None:
                return  # shared disk pipeline is empty
            addr, length = segment
            self.stack.guest_cycles(self.cost.guest_segment_cycles)
            if not self.nic.send_segment(addr, length):
                self._blocked_segment = segment
                return
            session.tokens -= length
            session.bytes_sent += length
            session.segments_sent += 1
            self.segments_sent += 1
            self.bytes_sent += length
            stalled = 0


@dataclass
class StreamingResult:
    stack: str
    demanded_load: float
    sessions: List[StreamSession] = field(default_factory=list)

    @property
    def load(self) -> float:
        return min(1.0, self.demanded_load)

    @property
    def sustainable(self) -> bool:
        return self.demanded_load <= 1.0

    @property
    def total_achieved_bps(self) -> float:
        return sum(s.achieved_bps for s in self.sessions)

    def all_sessions_served(self, tolerance: float = 0.85) -> bool:
        return all(s.achieved_bps >= tolerance * s.rate_bps
                   for s in self.sessions)


def run_streaming(stack_name: str, session_rates_bps: Sequence[float],
                  sim_seconds: float = 0.5,
                  cost: Optional[CostModel] = None) -> StreamingResult:
    """Serve the given sessions for a simulated window on one stack."""
    cost = cost or DEFAULT_COST_MODEL
    machine, stack, dispatcher = build_stack(stack_name, cost)
    server = StreamingServer(machine, stack, session_rates_bps, cost)
    server.register_handlers(dispatcher)
    server.start()
    dispatcher.dispatch_pending()

    deadline = cycles_for_seconds(sim_seconds, cost.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)

    for session in server.sessions:
        session._achieved = session.bytes_sent * 8 / sim_seconds
    return StreamingResult(
        stack=stack_name,
        demanded_load=machine.budget.demanded_load(deadline),
        sessions=list(server.sessions))


def max_sessions(stack_name: str, per_session_bps: float,
                 upper_bound: int = 64,
                 cost: Optional[CostModel] = None) -> int:
    """Admission control: how many sessions of this rate fit.

    Doubles then binary-searches on "demanded load <= 1 and every
    session achieved its rate".
    """
    segment_bits = 8 * 1024 * 1024

    def fits(count: int) -> bool:
        if count == 0:
            return True
        # Window long enough for every session to ship >= 6 segments,
        # so per-session pacing quantisation stays under ~15%.
        window = max(0.5, 6 * segment_bits / per_session_bps)
        result = run_streaming(stack_name,
                               [per_session_bps] * count, window, cost)
        return result.sustainable and result.all_sessions_served()

    low, high = 0, 1
    while high <= upper_bound and fits(high):
        low, high = high, high * 2
    while low + 1 < high:
        middle = (low + high) // 2
        if fits(middle):
            low = middle
        else:
            high = middle
    return low


# ----------------------------------------------------------------------
# TCP multi-client streaming under chaos
# ----------------------------------------------------------------------
#
# Everything above serves fixed-rate UDP flows on a lossless wire — the
# paper's Fig. 3.1 setup.  The section below is the production version:
# a TCP streaming server feeding hundreds of subscribers with mixed
# rates over a :class:`ChaosWire` that a seeded
# :class:`~repro.faults.plan.FaultPlan` can drop, corrupt, duplicate,
# delay and reorder frames on (sites ``nic.tx`` for the server's
# downlink, ``nic.rx`` for the subscribers' ACK uplink).  Slow
# consumers drain below their stream rate, so their advertised window
# shrinks to zero and the sender stalls on flow control; churned
# subscribers abort mid-stream; and when the admitted aggregate rate
# exceeds the server's capacity, a degradation ladder (full-service →
# degraded → overload) sheds the lowest-rate subscribers first — the
# same shape as the fleet supervisor's ladder from PR 8.
#
# Determinism: one EventQueue drives every timer, the wire and the
# ticks; the only randomness is the fault plan's seeded RNG.  Two runs
# with the same specs and seed produce identical transfers, counters
# and fault traces.

#: Degradation ladder levels, in order.
LEVEL_FULL = "full-service"
LEVEL_DEGRADED = "degraded"
LEVEL_OVERLOAD = "overload"

#: Demand/capacity ratio above which the ladder jumps straight to
#: overload (before shedding brings demand back under capacity).
OVERLOAD_RATIO = 1.5
#: Demand/capacity ratio below which a degraded server self-heals.
HEAL_RATIO = 0.7


class ChaosWire:
    """One direction of a shared link: pacing, latency and faults.

    Frames are serialised at ``line_rate_bps`` (shared medium — a busy
    wire delays the next frame), then delivered after ``latency_cycles``
    via the per-send ``deliver`` callable.  A fault plan may be
    attached; every frame is one ``decide`` opportunity at ``site`` for
    the kinds drop / corrupt / duplicate / delay / reorder (the
    ``nic.rx`` vocabulary — a reordered frame is held and delivered
    after the next one, with a failsafe flush so a quiet wire cannot
    strand it).
    """

    KINDS = ("drop", "corrupt", "duplicate", "delay", "reorder")
    REORDER_FLUSH_CYCLES = 400_000

    def __init__(self, queue: EventQueue, cpu_hz: float, site: str,
                 plan=None, latency_cycles: int = 2_000,
                 line_rate_bps: float = LINE_RATE_BPS) -> None:
        self.queue = queue
        self.cpu_hz = cpu_hz
        self.site = site
        self.plan = plan
        self.latency_cycles = latency_cycles
        self.line_rate_bps = line_rate_bps
        self._busy_until = 0
        self._held: List[Tuple[bytes, Callable[[bytes], None]]] = []
        self.frames_carried = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.frames_delayed = 0
        self.frames_reordered = 0

    def _fault(self, frame: bytes):
        if self.plan is None:
            return None, 0
        for kind in self.KINDS:
            rule = self.plan.decide(self.site, kind,
                                    detail=f"len={len(frame)}")
            if rule is None:
                continue
            delay = rule.params.get("delay_cycles", 50_000)
            return kind, delay
        return None, 0

    def send(self, frame: bytes,
             deliver: Callable[[bytes], None]) -> None:
        kind, fault_delay = self._fault(frame)
        if kind == "drop":
            self.frames_dropped += 1
            return
        if kind == "corrupt":
            self.frames_corrupted += 1
            offset = self.plan.rand_range(max(len(frame), 1))
            mangled = bytearray(frame)
            mangled[offset % max(len(frame), 1)] ^= 0xFF
            frame = bytes(mangled)
        wire_bits = (len(frame) + WIRE_OVERHEAD_BYTES) * 8
        wire_cycles = max(1, int(wire_bits / self.line_rate_bps
                                 * self.cpu_hz))
        start = max(self.queue.now, self._busy_until)
        self._busy_until = start + wire_cycles
        arrival = start + wire_cycles + self.latency_cycles
        if kind == "delay":
            self.frames_delayed += 1
            arrival += fault_delay
        if kind == "reorder":
            self.frames_reordered += 1
            self._held.append((frame, deliver))
            self.queue.schedule_in(
                max(1, arrival - self.queue.now)
                + self.REORDER_FLUSH_CYCLES,
                self._flush_held, name="wire-reorder-flush")
            return
        self.frames_carried += 1
        self.queue.schedule_at(arrival,
                               lambda f=frame, d=deliver: d(f),
                               name="wire-deliver")
        if kind == "duplicate":
            self.frames_duplicated += 1
            self.queue.schedule_at(arrival + wire_cycles,
                                   lambda f=frame, d=deliver: d(f),
                                   name="wire-deliver-dup")
        if self._held:
            held, self._held = self._held, []
            for held_frame, held_deliver in held:
                self.frames_carried += 1
                self.queue.schedule_at(
                    arrival + wire_cycles,
                    lambda f=held_frame, d=held_deliver: d(f),
                    name="wire-deliver-held")

    def _flush_held(self) -> None:
        if not self._held:
            return
        held, self._held = self._held, []
        for frame, deliver in held:
            self.frames_carried += 1
            self.queue.schedule_in(self.latency_cycles,
                                   lambda f=frame, d=deliver: d(f),
                                   name="wire-flush")

    def stats(self) -> Dict[str, int]:
        return {
            "frames_carried": self.frames_carried,
            "frames_dropped": self.frames_dropped,
            "frames_corrupted": self.frames_corrupted,
            "frames_duplicated": self.frames_duplicated,
            "frames_delayed": self.frames_delayed,
            "frames_reordered": self.frames_reordered,
        }


@dataclass
class SubscriberSpec:
    """One simulated subscriber of the TCP streaming server.

    ``rate_bps`` is the stream's nominal rate (the server paces each
    session with its own token bucket).  ``drain_bps`` models a slow
    consumer: when set below the stream rate, the client app drains its
    receive buffer at that rate and TCP flow control must absorb the
    difference.  ``disconnect_at_s`` churns the subscriber: it aborts
    (RST) mid-stream at that simulated time.
    """

    rate_bps: float
    bytes_total: int
    connect_at_s: float = 0.0
    drain_bps: Optional[float] = None
    disconnect_at_s: Optional[float] = None
    #: Client receive buffer; small buffers + slow drains force the
    #: advertised window to zero and stall the sender on flow control.
    rcv_buf: int = 65535


#: Session terminal states.
S_COMPLETED = "completed"
S_SHED = "shed"
S_CHURNED = "churned"
S_ACTIVE = "active"
S_FAILED = "failed"


@dataclass
class TcpSession:
    """Server-side bookkeeping for one subscriber."""

    index: int
    spec: SubscriberSpec
    conn: Optional[TcpConnection] = None
    client_conn: Optional[TcpConnection] = None
    tokens: float = 0.0
    offset: int = 0                 # bytes queued to TCP so far
    status: str = S_ACTIVE
    sent_sha: "hashlib._Hash" = field(
        default_factory=hashlib.sha256)
    received_sha: "hashlib._Hash" = field(
        default_factory=hashlib.sha256)
    bytes_received: int = 0
    pattern: bytes = b""

    @property
    def remaining(self) -> int:
        return self.spec.bytes_total - self.offset

    def block(self, offset: int, length: int) -> bytes:
        """Deterministic stream content for [offset, offset+length)."""
        period = len(self.pattern)
        start = offset % period
        reps = (start + length + period - 1) // period
        return (self.pattern * (reps + 1))[start:start + length]


def _session_pattern(index: int) -> bytes:
    """A 997-byte (prime, so segment boundaries drift) per-session
    pattern; deterministic in the subscriber index alone."""
    return bytes(((index * 37 + j * 101) ^ (j >> 3)) & 0xFF
                 for j in range(997))


@dataclass
class TcpStreamResult:
    """Outcome of one :func:`run_tcp_streaming` window."""

    sessions: List[TcpSession]
    level: str
    sessions_shed: int
    level_transitions: List[Tuple[float, str]]
    server_stats: Dict[str, int]
    downlink: Dict[str, int]
    uplink: Dict[str, int]
    sim_seconds: float

    @property
    def completed(self) -> List[TcpSession]:
        return [s for s in self.sessions if s.status == S_COMPLETED]

    @property
    def intact(self) -> bool:
        """Every completed session's stream arrived byte-identical."""
        return all(
            s.sent_sha.hexdigest() == s.received_sha.hexdigest()
            and s.bytes_received == s.spec.bytes_total
            for s in self.completed)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for session in self.sessions:
            out[session.status] = out.get(session.status, 0) + 1
        return out

    @property
    def aggregate_rate_bps(self) -> float:
        delivered = sum(s.bytes_received for s in self.sessions)
        return delivered * 8 / self.sim_seconds if self.sim_seconds else 0.0


class TcpStreamingServer:
    """The multi-subscriber TCP streaming harness.

    One simulated host network: a server endpoint, one endpoint per
    subscriber, a shared downlink wire (server → subscribers, fault
    site ``nic.tx``) and a shared uplink wire (subscribers → server,
    fault site ``nic.rx``).  The server admits every connection, paces
    each stream with a token bucket at its nominal rate, and runs the
    degradation ladder once per tick.
    """

    SERVER_IP = b"\x0a\x00\x00\x01"
    PORT = 8554        # an RTSP-flavoured number for a streaming server

    def __init__(self, specs: Sequence[SubscriberSpec],
                 plan=None, cost: Optional[CostModel] = None,
                 capacity_bps: Optional[float] = None,
                 latency_cycles: int = 2_000,
                 line_rate_bps: float = LINE_RATE_BPS,
                 bus=None, registry=None) -> None:
        self.cost = cost or DEFAULT_COST_MODEL
        self.queue = EventQueue()
        self.plan = plan
        self.bus = bus
        self.registry = registry
        cpu_hz = self.cost.cpu_hz
        self.capacity_bps = capacity_bps if capacity_bps is not None \
            else line_rate_bps / 2
        self.downlink = ChaosWire(self.queue, cpu_hz, "nic.tx", plan,
                                  latency_cycles, line_rate_bps)
        self.uplink = ChaosWire(self.queue, cpu_hz, "nic.rx", plan,
                                latency_cycles, line_rate_bps)
        cwnd_histogram = None
        if registry is not None:
            cwnd_histogram = registry.histogram(
                "net.tcp.cwnd", help="congestion window (bytes)",
                buckets=(1460, 2920, 5840, 11680, 23360, 46720, 65535))
        self.server = TcpEndpoint(
            self.queue, cpu_hz, self.SERVER_IP,
            self._send_downlink, name="server", bus=bus,
            cwnd_histogram=cwnd_histogram)
        self.server.listen(self.PORT, self._on_accept)
        self.sessions = [TcpSession(i, spec,
                                    pattern=_session_pattern(i))
                         for i, spec in enumerate(specs)]
        self._by_port = {10_000 + i: s for i, s in
                        enumerate(self.sessions)}
        self.clients: List[TcpEndpoint] = []
        self.level = LEVEL_FULL
        self.level_transitions: List[Tuple[float, str]] = []
        self.sessions_shed = 0
        self.ticks = 0
        self._tick_cycles = max(1, int(cpu_hz / self.cost.timer_hz))
        for index, session in enumerate(self.sessions):
            self._schedule_connect(index, session)
        self.queue.schedule_in(self._tick_cycles, self._tick,
                               name="server-tick")

    # -- wiring --------------------------------------------------------------

    def _send_downlink(self, raw: bytes) -> None:
        # Demux by destination IP: one shared wire, per-frame delivery.
        dst = raw[:6]
        client = self._client_by_mac.get(dst)
        if client is None:
            return
        self.downlink.send(raw, client.receive_frame)

    def _send_uplink(self, raw: bytes) -> None:
        self.uplink.send(raw, self.server.receive_frame)

    def _schedule_connect(self, index: int, session: TcpSession) -> None:
        delay = cycles_for_seconds(session.spec.connect_at_s,
                                   self.cost.cpu_hz)
        self.queue.schedule_at(
            max(delay, 0),
            lambda i=index, s=session: self._connect_client(i, s),
            name="client-connect")

    def _client_ip(self, index: int) -> bytes:
        return bytes([10, 1, (index >> 8) & 0xFF, index & 0xFF])

    @property
    def _client_by_mac(self) -> Dict[bytes, TcpEndpoint]:
        cache = getattr(self, "_mac_cache", None)
        if cache is None or len(cache) != len(self.clients):
            cache = {client.mac: client for client in self.clients}
            self._mac_cache = cache
        return cache

    def _connect_client(self, index: int, session: TcpSession) -> None:
        client = TcpEndpoint(self.queue, self.cost.cpu_hz,
                             self._client_ip(index), self._send_uplink,
                             name=f"sub{index}", bus=self.bus)
        self.clients.append(client)
        self._mac_cache = None
        conn = client.connect(self.SERVER_IP, self.PORT,
                              local_port=10_000 + index,
                              rcv_buf=session.spec.rcv_buf)
        session.client_conn = conn
        conn.on_readable = (None if session.spec.drain_bps is not None
                            else (lambda c, s=session:
                                  self._client_drain(s, c.take())))
        conn.on_closed = lambda c, reason, s=session: \
            self._client_closed(s, reason)
        if session.spec.disconnect_at_s is not None:
            self.queue.schedule_at(
                cycles_for_seconds(session.spec.disconnect_at_s,
                                   self.cost.cpu_hz),
                lambda s=session: self._churn(s), name="client-churn")

    # -- client-side behaviour ------------------------------------------------

    def _client_drain(self, session: TcpSession, data: bytes) -> None:
        if not data:
            return
        session.received_sha.update(data)
        session.bytes_received += len(data)
        if session.bytes_received >= session.spec.bytes_total \
                and session.status == S_ACTIVE \
                and session.client_conn is not None \
                and session.client_conn.state in ("ESTABLISHED",
                                                  "CLOSE_WAIT"):
            session.client_conn.close()

    def _churn(self, session: TcpSession) -> None:
        if session.status != S_ACTIVE:
            return
        if session.client_conn is not None \
                and session.client_conn.state != "CLOSED":
            session.status = S_CHURNED
            session.client_conn.abort()

    def _client_closed(self, session: TcpSession, reason: str) -> None:
        if session.client_conn is not None:
            # Drain whatever arrived before the close.
            self._client_drain(session, session.client_conn.take())
        if session.status != S_ACTIVE:
            return
        if reason == "reset-by-peer":
            session.status = S_SHED
        elif session.bytes_received >= session.spec.bytes_total:
            session.status = S_COMPLETED
        else:
            session.status = S_FAILED

    # -- server-side behaviour ------------------------------------------------

    def _on_accept(self, conn: TcpConnection) -> None:
        session = self._by_port.get(conn.remote_port)
        if session is None:
            conn.abort()
            return
        session.conn = conn
        session.tokens = float(conn.mss)

    # -- pacing + ladder ------------------------------------------------------

    def _active_sessions(self) -> List[TcpSession]:
        return [s for s in self.sessions
                if s.status == S_ACTIVE and s.conn is not None
                and s.remaining > 0 and s.conn.state != "CLOSED"]

    def _tick(self) -> None:
        self.ticks += 1
        self._enforce_capacity()
        per_tick = 1.0 / self.cost.timer_hz
        for session in self._active_sessions():
            conn = session.conn
            session.tokens = min(
                session.tokens + session.spec.rate_bps / 8.0 * per_tick,
                4.0 * conn.mss)
            if conn.state not in ("ESTABLISHED", "CLOSE_WAIT"):
                continue    # still in handshake (or tearing down)
            # App-level backpressure: keep at most ~4 segments buffered
            # inside TCP beyond what is already in flight, and only
            # carve whole segments (or the stream tail).
            while session.remaining > 0 \
                    and session.tokens >= min(conn.mss,
                                              session.remaining) \
                    and conn.sndbuf_bytes < 4 * conn.mss:
                size = min(conn.mss, session.remaining)
                chunk = session.block(session.offset, size)
                conn.send(chunk)
                session.sent_sha.update(chunk)
                session.offset += size
                session.tokens -= size
                if session.remaining == 0:
                    conn.close()
        # Slow consumers drain at their own rate.
        for session in self.sessions:
            drain = session.spec.drain_bps
            if drain is None or session.client_conn is None:
                continue
            budget = int(drain / 8.0 * per_tick)
            if budget > 0:
                self._client_drain(session,
                                   session.client_conn.take(budget))
        self.queue.schedule_in(self._tick_cycles, self._tick,
                               name="server-tick")

    def _enforce_capacity(self) -> None:
        active = self._active_sessions()
        demand = sum(s.spec.rate_bps for s in active)
        if demand > self.capacity_bps:
            overload = demand > OVERLOAD_RATIO * self.capacity_bps
            self._set_level(LEVEL_OVERLOAD if overload
                            else LEVEL_DEGRADED)
            # Shed lowest-rate subscribers first (each carries the
            # least service for the connection overhead it costs).
            for victim in sorted(active,
                                 key=lambda s: (s.spec.rate_bps,
                                                s.index)):
                if demand <= self.capacity_bps:
                    break
                victim.status = S_SHED
                self.sessions_shed += 1
                demand -= victim.spec.rate_bps
                if victim.conn is not None:
                    victim.conn.abort()
            if self.level == LEVEL_OVERLOAD:
                self._set_level(LEVEL_DEGRADED)
        elif self.level != LEVEL_FULL \
                and demand <= HEAL_RATIO * self.capacity_bps:
            self._set_level(LEVEL_FULL)

    def _set_level(self, level: str) -> None:
        if level == self.level:
            return
        self.level = level
        now_s = self.queue.now / self.cost.cpu_hz
        self.level_transitions.append((now_s, level))
        if self.bus is not None:
            self.bus.instant("net", "stream-ladder", self.queue.now,
                             args={"level": level})

    # -- driving --------------------------------------------------------------

    def run(self, sim_seconds: float,
            grace_seconds: float = 0.5) -> TcpStreamResult:
        """Run the window, then a bounded grace drain for stragglers."""
        cpu_hz = self.cost.cpu_hz
        deadline = cycles_for_seconds(sim_seconds, cpu_hz)
        self.queue.run_until(deadline)
        grace_deadline = deadline + cycles_for_seconds(grace_seconds,
                                                       cpu_hz)
        step = cycles_for_seconds(0.01, cpu_hz)
        while self.queue.now < grace_deadline:
            if not any(s.status == S_ACTIVE for s in self.sessions):
                break
            self.queue.run_until(min(self.queue.now + step,
                                     grace_deadline))
        # Final client-side drain for anything still buffered.
        for session in self.sessions:
            if session.client_conn is not None:
                self._client_drain(session, session.client_conn.take())
            if session.status == S_ACTIVE \
                    and session.bytes_received >= session.spec.bytes_total:
                session.status = S_COMPLETED
        result = TcpStreamResult(
            sessions=self.sessions,
            level=self.level,
            sessions_shed=self.sessions_shed,
            level_transitions=list(self.level_transitions),
            server_stats=self.server.stats(),
            downlink=self.downlink.stats(),
            uplink=self.uplink.stats(),
            sim_seconds=self.queue.now / cpu_hz)
        if self.registry is not None:
            from repro.obs.metrics import collect_net
            collect_net(endpoint=self.server, result=result,
                        registry=self.registry)
        return result


def run_tcp_streaming(specs: Sequence[SubscriberSpec], plan=None,
                      sim_seconds: float = 0.5,
                      grace_seconds: float = 0.5,
                      cost: Optional[CostModel] = None,
                      capacity_bps: Optional[float] = None,
                      bus=None, registry=None) -> TcpStreamResult:
    """Serve ``specs`` over chaos-wired TCP for one simulated window."""
    server = TcpStreamingServer(specs, plan=plan, cost=cost,
                                capacity_bps=capacity_bps, bus=bus,
                                registry=registry)
    return server.run(sim_seconds, grace_seconds)


def mixed_rate_specs(count: int, bytes_total: int = 30_000,
                     base_rate_bps: float = 1_000_000.0,
                     connect_spread_s: float = 0.05,
                     slow_every: int = 0,
                     churn_every: int = 0,
                     churn_at_s: float = 0.1) -> List[SubscriberSpec]:
    """A deterministic mixed-rate subscriber population.

    Rates cycle through 0.5x / 1x / 2x / 4x of the base rate; connect
    times stagger across ``connect_spread_s``.  Every ``slow_every``-th
    subscriber drains at a quarter of its stream rate; every
    ``churn_every``-th disconnects at ``churn_at_s``.
    """
    multipliers = (0.5, 1.0, 2.0, 4.0)
    specs = []
    for index in range(count):
        rate = base_rate_bps * multipliers[index % len(multipliers)]
        drain = None
        rcv_buf = 65535
        if slow_every and index % slow_every == slow_every - 1:
            drain = rate / 4.0
            rcv_buf = 4096      # small buffer: the window will close
        disconnect = None
        if churn_every and index % churn_every == 0:
            disconnect = churn_at_s
        specs.append(SubscriberSpec(
            rate_bps=rate, bytes_total=bytes_total,
            connect_at_s=(index * connect_spread_s / max(count, 1)),
            drain_bps=drain, disconnect_at_s=disconnect,
            rcv_buf=rcv_buf))
    return specs
