"""Measurement core: host-speed probe, closed-loop timing, statistics.

Host time on a shared machine drifts in two ways.  The host can take
the CPU away (another process, or the hypervisor stealing the virtual
CPU): wall-clock time grows while this thread does no work.  And the
CPU itself can run slower (cache and memory contention, frequency): the
same pure-Python code can take twice as long a second later.  Every op
is therefore timed in CPU time of the benchmark thread
(:func:`cpu_clock`), which does not count time the thread was not
running, and a fixed reference kernel (the *probe*) is timed the same
way around each op.  The op's CPU time is scaled by
``NOMINAL_PROBE_S / measured_probe``, so a slow patch of host speed
slows the probe and the op alike and cancels out.  Units stay seconds.
The probe is a pure-Python kernel, the interpreter-bound mix the
simulator runs; a workload whose time is mostly native copies and
hashes is timed raw (see ``Workload.probe``).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: What one probe takes on the reference host (seconds).  Scaled times
#: read as "host time on a host whose probe takes exactly this long".
NOMINAL_PROBE_S = 1.0e-3

#: CPU time of the calling thread: ops and probes run in this thread.
cpu_clock = time.thread_time

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10

#: Idle time between set-up builds (see :func:`median_setup`).
SETUP_SPACING_S = 0.1


def probe_kernel(rounds: int = 2200) -> int:
    """The fixed reference kernel: integer arithmetic, dict traffic,
    attribute-free branching — the interpreter-bound mix the simulator
    itself runs.  Returns its result so the work cannot be skipped."""
    acc = 0
    table: Dict[int, int] = {}
    for i in range(rounds):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] = acc
        if acc & 1:
            acc ^= table.get((i >> 1) & 63, 0)
    return acc


@dataclass(frozen=True)
class Probe:
    """A reference kernel and what it takes on the reference host."""

    kernel: Callable[[], object]
    nominal_s: float = NOMINAL_PROBE_S

    def time(self) -> float:
        start = cpu_clock()
        self.kernel()
        return cpu_clock() - start


PYTHON_PROBE = Probe(probe_kernel)


def scale(raw_s: float, probe_before_s: float, probe_after_s: float,
          nominal_s: float = NOMINAL_PROBE_S) -> float:
    """Host time of an op, rescaled to the nominal probe speed.

    The op ran between two probes; their mean is the host speed the op
    saw."""
    seen = (probe_before_s + probe_after_s) / 2.0
    return raw_s * nominal_s / seen


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank
    ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_ok(count: int, pct: float) -> bool:
    """The tail rule: a percentile is reportable only with at least
    :data:`MIN_BEYOND` samples beyond it."""
    return beyond(count, pct) >= MIN_BEYOND


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus the largest reaped child
    process when asked), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


@dataclass
class OpLog:
    """Per-op samples of one measured phase."""

    latencies_s: List[float] = field(default_factory=list)
    #: Per packet type (debug-roundtrip) scaled times.
    by_type_s: Dict[str, List[float]] = field(default_factory=dict)
    probes_s: List[float] = field(default_factory=list)
    #: Per attempted op: the probe scale applied to its host time.
    factors: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sim_s: float = 0.0
    guest_insns: int = 0
    #: Summed (scaled) host time of the completed ops.
    host_s: float = 0.0

    def throughput(self) -> float:
        """Completed ops per second of summed op time: every slow op
        counts, not just the middle one."""
        return len(self.latencies_s) / self.host_s if self.host_s else 0.0

    def tail_samples(self) -> List[float]:
        """Latencies with every failed op counted as missing any limit."""
        return self.latencies_s + [math.inf] * self.failed


def closed_loop(op: Callable[[int], "OpResult"], seconds: float,
                probe: Optional[Probe], max_ops: Optional[int] = None,
                stop: Callable[[], bool] = lambda: False,
                settle: Optional[Callable[[], object]] = None) -> OpLog:
    """Run ``op(0)``, ``op(1)``, ... back to back for ``seconds`` of
    wall-clock time (or ``max_ops`` ops, or until ``stop()`` is true).

    Each op's CPU time is bracketed by probes and, given a ``probe``,
    reported at its nominal speed (raw otherwise; the pure-Python probe
    is still timed so host drift shows).  ``settle`` runs untimed after
    each op.  An op that raises or returns ``ok=False`` is counted as
    failed."""
    log = OpLog()
    timer = probe or PYTHON_PROBE
    deadline = time.perf_counter() + seconds
    before = timer.time()
    while time.perf_counter() < deadline and not stop():
        if max_ops is not None and log.attempted >= max_ops:
            break
        index = log.attempted
        log.attempted += 1
        start = cpu_clock()
        try:
            result = op(index)
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            result = OpResult(ok=False, error=f"{type(exc).__name__}: {exc}")
        raw = cpu_clock() - start
        if settle is not None:
            settle()
        after = timer.time()
        log.probes_s.append(before)
        factor = scale(1.0, before, after, timer.nominal_s) if probe \
            else 1.0
        log.factors.append(factor)
        before = after
        if not result.ok:
            log.failed += 1
            print(f"op {index} failed: {result.error}")
            continue
        log.latencies_s.append(raw * factor)
        log.host_s += raw * factor
        log.sim_s += result.sim_s
        log.guest_insns += result.guest_insns
        for kind, raw_part in result.parts_s.items():
            log.by_type_s.setdefault(kind, []).append(raw_part * factor)
    log.probes_s.append(before)
    return log


@dataclass
class OpResult:
    """What one op reports back to the loop."""

    ok: bool = True
    error: str = ""
    sim_s: float = 0.0
    guest_insns: int = 0
    #: Raw CPU seconds of named parts of the op (per packet type).
    parts_s: Dict[str, float] = field(default_factory=dict)


def median_setup(build: Callable[[], object], repeats: int) -> float:
    """Median set-up time over ``repeats`` fresh builds, in raw CPU time.

    Builds are a few milliseconds of allocation-heavy work that does not
    slow down with the probe: scaled by it, one workload's median set-up
    read 2.6 ms in one process and 3.4 ms in another, while its raw CPU
    time stayed within 2.1-2.5 ms.  The host flips between a fast and a
    slow state (the probe reads 0.6 or 1.0 ms) for a second or so at a
    time, so builds taken back to back all land in one state; spaced
    :data:`SETUP_SPACING_S` apart, they sample both and the median
    follows the usual one."""
    times = []
    for index in range(repeats):
        if index:
            time.sleep(SETUP_SPACING_S)
        start = cpu_clock()
        build()
        times.append(cpu_clock() - start)
        gc.collect()   # built machines sit in reference cycles
    return statistics.median(times)
