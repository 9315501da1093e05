"""Monitor commands: the debugging services beside the LVMM.

Every GDB ``monitor <cmd>`` (RSP ``qRcmd``) is answered from the static
:data:`COMMANDS` table by a plain ``(monitor, args) -> str`` function,
where ``args`` are the words after the command name.  A new service is
one function and one row here; the monitor core never changes for it.
"""

from typing import TYPE_CHECKING, Callable, Dict, List

from repro.obs.profiler import GuestProfiler
from repro.obs.tracer import Tracer

if TYPE_CHECKING:
    from repro.vmm.monitor import LightweightVmm

Handler = Callable[["LightweightVmm", List[str]], str]

HELP = ("monitor commands: stats console trace [n] shadow hang watchdog "
        "fleet record [checkpoint] replay jit tv net help\n"
        "structured trace: trace start [stride] | stop | dump [n] | status\n"
        "superblocks: jit [on|off|flush]\n"
        "translation validation: tv [on|off]\nnetwork: net [tcp|rx|all]")


def dispatch(monitor: "LightweightVmm", text: str) -> str:
    """Service a host-side ``monitor <cmd>`` request."""
    parts = text.split()
    name = parts[0] if parts else "help"
    handler = COMMANDS.get(name)
    if handler is None:
        return f"unknown monitor command {name!r} (try 'help')"
    return handler(monitor, parts[1:])


def _stats(monitor, args) -> str:
    stats = monitor.stats
    traps = ", ".join(f"{k}={v}" for k, v in
                      sorted(stats.traps_by_mnemonic.items()))
    cpu = monitor.machine.cpu
    decode = cpu.decode_cache_stats()
    blocks = cpu.block_cache_stats()
    tlb = cpu.mmu.tlb.stats()
    return (f"traps emulated: {stats.traps_emulated} ({traps or 'none'})\n"
            f"interrupts fielded/reflected: {stats.interrupts_fielded}/"
            f"{stats.interrupts_reflected}\n"
            f"exceptions reflected: {stats.exceptions_reflected}\n"
            f"vmcalls: {stats.vmcalls}, debug stops: {stats.debug_stops}\n"
            f"decode cache: hits={decode['hits']} misses={decode['misses']} "
            f"hit-rate={decode['hit_rate']:.3f} "
            f"invalidations={decode['invalidations']}\n"
            f"block cache: blocks={blocks['entries']} hits={blocks['hits']} "
            f"guard-fails={blocks['guard_failures']} "
            f"hit-rate={blocks['hit_rate']:.3f}\n"
            f"tlb: hits={tlb['hits']} misses={tlb['misses']} "
            f"hit-rate={tlb['hit_rate']:.3f}\n"
            f"guest dead: {monitor.guest_dead} {monitor.guest_dead_reason}")


def _console(monitor, args) -> str:
    return monitor.console.decode("latin-1", errors="replace") \
        or "(console empty)"


def _shadow(monitor, args) -> str:
    shadow = monitor.shadow
    return (f"vif={shadow.vif} halted={shadow.halted}\n"
            f"idtr={shadow.idtr.base:#x}/{shadow.idtr.limit:#x} "
            f"gdtr={shadow.gdtr.base:#x}/{shadow.gdtr.limit:#x}\n"
            f"cr0={shadow.cr0:#x} cr3={shadow.cr3:#x}\n"
            f"virtual pic: {shadow.virtual_pic.state()}")


def _hang(monitor, args) -> str:
    """Hang diagnosis: progress since the last check + a verdict.

    The conventional embedded stub cannot even be *asked* this
    question once the guest wedges; asking it of the monitor is
    always safe.
    """
    cpu = monitor.machine.cpu
    progress = cpu.instret - getattr(monitor, "hang_last_instret", 0)
    monitor.hang_last_instret = cpu.instret
    if monitor.guest_dead:
        verdict = f"guest is dead: {monitor.guest_dead_reason}"
    elif cpu.halted and not monitor.shadow.vif:
        verdict = ("guest parked in HLT with virtual IF clear — "
                   "it can never wake (dead idle or missed STI)")
    elif cpu.halted:
        verdict = "guest idle in HLT, interrupts enabled (healthy)"
    elif not monitor.shadow.vif and progress > 0:
        verdict = ("guest executing with virtual IF clear — "
                   "a long critical section or an interrupt-off spin")
    elif progress == 0 and not monitor.stopped:
        verdict = "no progress since last check — possible hard spin"
    else:
        verdict = "guest making progress"
    return (f"instructions retired: {cpu.instret} "
            f"(+{progress} since last check)\n"
            f"pc={cpu.pc:#010x} halted={cpu.halted} "
            f"vif={monitor.shadow.vif}\n{verdict}")


def _watchdog(monitor, args) -> str:
    if monitor.watchdog is None:
        return f"level: {monitor.degradation_level}\n(no watchdog attached)"
    return monitor.watchdog.report()


def _fleet(monitor, args) -> str:
    # Populated by a fleet worker (repro.fleet.worker); a standalone
    # monitor has no fleet context.
    info = getattr(monitor, "fleet_info", None)
    if not info:
        return "fleet: not a fleet worker"
    return "\n".join(f"{key}: {info[key]}" for key in sorted(info))


def _record(monitor, args) -> str:
    recorder = monitor.recorder
    if recorder is None:
        return "recording: off (no flight recorder attached)"
    if args and args[0] == "checkpoint":
        digest = recorder.checkpoint()
        return f"checkpoint taken: digest {digest[:16]}..."
    stats = recorder.stats()
    return (f"recording: on\n"
            f"frames: {stats['frames']} "
            f"(~{stats['journal_bytes']} journal bytes)\n"
            f"inputs: {stats['input_frames']}, ops: {stats['op_frames']}, "
            f"cross-checks: {stats['xc_frames']}\n"
            f"checkpoints: {stats['checkpoints']} "
            f"(every {stats['checkpoint_every']} run slices)\n"
            f"uart bytes recorded: h2t={stats['uart_rx_bytes']} "
            f"t2h={stats['t2h_bytes']}")


def _replay(monitor, args) -> str:
    status = monitor.replay_status
    if status is None:
        return "replay: off (not driven by a replayer)"
    lines = [f"replay: frame {status['frame']}/{status['total']} "
             f"({status['mode']})"]
    divergence = status.get("divergence")
    if divergence:
        lines.append(f"DIVERGED at frame {divergence['frame_index']}: "
                     f"{divergence['message']}")
    else:
        lines.append("no divergence so far")
    return "\n".join(lines)


def _trace(monitor, args) -> str:
    """``trace [n]``: the event ring's newest ``n`` events.
    ``trace start|stop|dump|status``: live structured tracing of this
    debug session over RSP."""
    action = args[0] if args else None
    if action not in ("start", "stop", "dump", "status"):
        records = monitor.trace.tail(int(action) if args else 24)
        if not records:
            return "(trace empty)"
        return "\n".join(
            f"[{record.seq:6d}] cyc={record.cycle:<12d} "
            f"pc={record.pc:#010x} {record.name:<8s} "
            f"{record.args['detail']}" for record in records)
    if action == "start":
        if monitor.obs_tracer is not None:
            return "structured trace already running"
        stride = int(args[1]) if len(args) > 1 else 4096
        # Whatever can refuse (a bad stride, a profiler already
        # attached) does so before the tracer subscribes to any tap.
        monitor.attach_profiler(GuestProfiler(stride=stride))
        tracer = Tracer()
        tracer.attach(monitor=monitor, recorder=monitor.recorder)
        monitor.obs_tracer = tracer
        return (f"structured trace started "
                f"(profiler stride {stride} instructions)")
    tracer = monitor.obs_tracer
    if tracer is None:
        return "structured trace not running ('monitor trace start')"
    profiler = monitor.profiler
    if action == "dump":
        events = tracer.bus.tail(int(args[1]) if len(args) > 1 else 24)
        if not events:
            return "(structured trace empty)"
        return "\n".join(event.format() for event in events)
    if action == "status":
        stats = tracer.bus.stats()
        lines = [f"structured trace: on ({stats['retained']} events "
                 f"retained, {stats['recorded']} recorded, "
                 f"{stats['dropped']} dropped)"]
        counts = tracer.bus.counts_by_category()
        if counts:
            lines.append("by category: " + ", ".join(
                f"{cat}={n}" for cat, n in counts.items()))
        if profiler is not None:
            lines.append(f"profiler: {profiler.total_samples} "
                         f"samples at stride {profiler.stride}")
        return "\n".join(lines)
    # action == "stop"
    recorded = tracer.bus.total_recorded
    samples = profiler.total_samples if profiler is not None else 0
    tracer.detach()
    monitor.detach_profiler()
    monitor.obs_tracer = None
    return (f"structured trace stopped "
            f"({recorded} events, {samples} profile samples)")


#: ``jit``/``tv``: (feature, engine flag, actions), where an action maps
#: to (flag value or None, flush the block cache?, reply).  ``tv on``
#: flushes because already-installed blocks were compiled unverified.
_ENGINE_COMMANDS = {
    "jit": ("superblock translation", "enabled", {
        "on": (True, False, "superblock translation enabled"),
        "off": (False, True,
                "superblock translation disabled (blocks flushed)"),
        "flush": (None, True, "superblock cache flushed")}),
    "tv": ("translation validation", "verify", {
        "on": (True, True,
               "translation validation enabled (block cache flushed)"),
        "off": (False, False, "translation validation disabled")}),
}


def _engine_command(monitor, args, name: str, status) -> str:
    """The superblock engine's guard and on/off parse, shared by
    ``jit`` and ``tv``; with no action, ``status(engine)``."""
    feature, flag, actions = _ENGINE_COMMANDS[name]
    engine = monitor.machine.cpu._sb_engine
    if engine is None:
        return f"{feature} unavailable (CPU built with translate=False)"
    if not args:
        return status(engine)
    if args[0] not in actions:
        return f"unknown {name} subcommand {args[0]!r} (try 'help')"
    value, flush, reply = actions[args[0]]
    if value is not None:
        setattr(engine, flag, value)
    if flush:
        engine.invalidate()
    return reply


def _jit_status(engine) -> str:
    stats = engine.stats()
    return (f"superblock translation: {'on' if stats['enabled'] else 'off'}\n"
            f"blocks: {stats['entries']} live, "
            f"{stats['blocks_compiled']} compiled, "
            f"{stats['invalidations']} invalidations\n"
            f"dispatch: {stats['hits']} block entries, "
            f"{stats['guard_failures']} guard failures\n"
            f"translated: {stats['insns_translated']} instructions "
            f"(hit-rate {stats['hit_rate']:.3f})")


def _tv_status(engine) -> str:
    stats = engine.tv_stats()
    lines = [f"translation validation: {'on' if stats['enabled'] else 'off'}\n"
             f"blocks validated: {stats['validated']}, "
             f"rejected: {stats['rejected']}"]
    lines.extend(f"  {message}" for message in stats["failures"][:8])
    return "\n".join(lines)


def _net(monitor, args) -> str:
    """``net [tcp|rx|all]``: the process-wide ``net.*`` metrics that
    the TCP stack and the streaming workload publish (retransmits, RTO
    expirations, dup-acks, the cwnd histogram, malformed drops)."""
    from repro.obs.metrics import global_registry
    scope = args[0] if args else "all"
    prefixes = {"tcp": ("net.tcp.",), "rx": ("net.rx.",),
                "all": ("net.",)}.get(scope)
    if prefixes is None:
        return f"unknown net subcommand {scope!r} (try 'help')"
    registry = global_registry()
    lines = []
    for name in registry.names():
        if not name.startswith(prefixes):
            continue
        snap = registry.get(name).snapshot()
        if snap["type"] == "histogram":
            buckets = " ".join(
                f"<={bound}:{count}" for bound, count
                in snap["buckets"].items() if count)
            lines.append(f"{name}: count={snap['count']} "
                         f"min={snap['min']} max={snap['max']} "
                         f"{buckets or '(empty)'}")
        else:
            lines.append(f"{name}: {snap['value']}")
    return "\n".join(lines) or "net: no net.* metrics recorded yet"


#: Every monitor command, by name (docs/PROTOCOL.md has the replies).
COMMANDS: Dict[str, Handler] = {
    "stats": _stats,
    "console": _console,
    "trace": _trace,
    "shadow": _shadow,
    "hang": _hang,
    "watchdog": _watchdog,
    "fleet": _fleet,
    "record": _record,
    "replay": _replay,
    "jit": lambda monitor, args: _engine_command(
        monitor, args, "jit", _jit_status),
    "tv": lambda monitor, args: _engine_command(
        monitor, args, "tv", _tv_status),
    "net": _net,
    "help": lambda monitor, args: HELP,
}
