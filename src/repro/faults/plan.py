"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is the single source of randomness for a fault
campaign.  Injectors ask it ``decide(site, kind)`` at every injection
*opportunity* (a disk request, a frame transmission, a byte on the debug
link...); the plan consults its declarative rules and its seeded RNG and
either fires a fault — recording it in the trace — or stays quiet.

Determinism contract: given the same seed, the same rules and the same
(deterministic) workload, two runs produce byte-identical traces and
identical counters.  The RNG is only consumed by probability rules that
match the opportunity and by the ``rand_*`` helpers injectors use to
parameterise a fault that already fired, so RNG consumption order is a
pure function of the opportunity stream.  Everything recorded in the
trace is integers and fixed strings — no wall-clock time, no floats, no
id()s — so the trace text is stable across runs and Python versions.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultPlanError
from repro.obs.taps import TapPoint


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in the trace."""

    seq: int        # position in the trace, 0-based
    site: str       # e.g. "disk0", "nic.tx", "uart.h2t", "rsp.h2t"
    kind: str       # e.g. "medium-error", "drop", "corrupt", "stall"
    opportunity: int  # which opportunity at (site, kind) fired, 1-based
    detail: str = ""

    def format(self) -> str:
        text = f"{self.seq:06d} {self.site} {self.kind} op={self.opportunity}"
        return f"{text} {self.detail}" if self.detail else text


class FaultTrace:
    """Append-only log of fired faults with a stable text encoding."""

    def __init__(self) -> None:
        self.events: List[FaultEvent] = []

    def record(self, site: str, kind: str, opportunity: int,
               detail: str = "") -> FaultEvent:
        event = FaultEvent(len(self.events), site, kind, opportunity, detail)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def format(self) -> str:
        """The canonical text form (one event per line, newline-terminated)."""
        return "".join(event.format() + "\n" for event in self.events)

    def digest(self) -> str:
        return hashlib.sha256(self.format().encode("ascii")).hexdigest()


@dataclass
class FaultRule:
    """One line of a fault schedule.

    ``site`` and ``kind`` are matched against the opportunity (``site``
    may use ``fnmatch`` wildcards, so ``"disk*"`` covers every disk).
    A rule fires when any of its triggers hits:

    * ``at_count``: exactly at the Nth matching opportunity (one-shot);
    * ``every``: at every Nth matching opportunity;
    * ``probability``: per-opportunity coin flip from the plan's RNG.

    ``max_fires`` bounds the total number of injections from this rule.
    ``params`` carries injector-specific knobs (sense key, delay cycles,
    ...) documented by each injector.
    """

    site: str
    kind: str
    probability: float = 0.0
    at_count: Optional[int] = None
    every: Optional[int] = None
    max_fires: Optional[int] = None
    params: Dict[str, int] = field(default_factory=dict)
    fires: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError(
                f"rule {self.site}/{self.kind}: probability "
                f"{self.probability} outside [0, 1]")
        if self.at_count is not None and self.at_count < 1:
            raise FaultPlanError(
                f"rule {self.site}/{self.kind}: at_count must be >= 1")
        if self.every is not None and self.every < 1:
            raise FaultPlanError(
                f"rule {self.site}/{self.kind}: every must be >= 1")
        if self.probability == 0.0 and self.at_count is None \
                and self.every is None:
            raise FaultPlanError(
                f"rule {self.site}/{self.kind} can never fire: set "
                f"probability, at_count or every")

    def matches(self, site: str, kind: str) -> bool:
        return self.kind == kind and fnmatchcase(site, self.site)

    def exhausted(self) -> bool:
        return self.max_fires is not None and self.fires >= self.max_fires


class FaultPlan:
    """Seeded RNG + schedule + trace + counters for one campaign run."""

    def __init__(self, seed: int,
                 rules: Sequence[FaultRule] = ()) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = list(rules)
        self._rng = random.Random(seed)
        self.trace = FaultTrace()
        self.armed = True
        #: Multicast observation point notified as ``taps(purpose,
        #: value)`` after every RNG draw (``purpose`` is "decide",
        #: "range" or "byte").  The flight recorder journals draws as
        #: provenance; the tracer subscribes alongside.  Observers must
        #: only observe and never consume RNG state themselves, or the
        #: determinism contract above breaks.
        self.draw_taps = TapPoint()
        #: Multicast observation point notified as ``taps(event)`` with
        #: the :class:`FaultEvent` for every fault that actually fires.
        self.fire_taps = TapPoint()
        #: Opportunities seen per (site, kind) — fault or not.
        self.opportunities: Dict[Tuple[str, str], int] = {}
        #: Faults fired per (site, kind).
        self.injected: Dict[Tuple[str, str], int] = {}
        #: Recovery actions observed per (site, action).
        self.recoveries: Dict[Tuple[str, str], int] = {}

    # -- schedule ------------------------------------------------------------

    def add_rule(self, rule: FaultRule) -> FaultRule:
        self.rules.append(rule)
        return rule

    def disarm(self) -> None:
        """Stop injecting (the fault window closes); counters survive."""
        self.armed = False

    def arm(self) -> None:
        self.armed = True

    # -- the decision point --------------------------------------------------

    def decide(self, site: str, kind: str,
               detail: str = "") -> Optional[FaultRule]:
        """One injection opportunity; returns the rule that fired, if any.

        Matching rules are evaluated in schedule order; the first that
        fires wins and is recorded in the trace.  Probability rules
        consume exactly one RNG draw per matching opportunity whether or
        not they fire, keeping RNG state a pure function of the
        opportunity stream.
        """
        if not self.armed:
            return None
        key = (site, kind)
        count = self.opportunities.get(key, 0) + 1
        self.opportunities[key] = count
        fired: Optional[FaultRule] = None
        for rule in self.rules:
            if not rule.matches(site, kind):
                continue
            hit = False
            if rule.probability > 0.0:
                draw = self._rng.random()
                if self.draw_taps:
                    self.draw_taps("decide", draw)
                hit = draw < rule.probability
            if rule.at_count is not None and count == rule.at_count:
                hit = True
            if rule.every is not None and count % rule.every == 0:
                hit = True
            if hit and fired is None and not rule.exhausted():
                fired = rule
                # keep evaluating: later probability rules must still
                # consume their draw for determinism.
        if fired is None:
            return None
        fired.fires += 1
        self.injected[key] = self.injected.get(key, 0) + 1
        event = self.trace.record(site, kind, count, detail)
        if self.fire_taps:
            self.fire_taps(event)
        return fired

    # -- deterministic parameter helpers -------------------------------------

    def rand_range(self, upper: int) -> int:
        """Deterministic integer in [0, upper) for fault parameters."""
        if upper <= 0:
            return 0
        value = self._rng.randrange(upper)
        if self.draw_taps:
            self.draw_taps("range", value)
        return value

    def rand_byte(self) -> int:
        value = self._rng.randrange(256)
        if self.draw_taps:
            self.draw_taps("byte", value)
        return value

    # -- recovery accounting -------------------------------------------------

    def record_recovery(self, site: str, action: str) -> None:
        key = (site, action)
        self.recoveries[key] = self.recoveries.get(key, 0) + 1

    def recovery_recorder(self, site: str):
        """A ``Callable[[str], None]`` bound to one site, for consumers
        (e.g. the RSP client's retry policy) that report actions."""
        def observer(action: str) -> None:
            self.record_recovery(site, action)
        return observer

    # -- export ------------------------------------------------------------

    def stats(self) -> dict:
        """Counters in a stable, JSON-friendly shape."""
        return {
            "seed": self.seed,
            "opportunities": {f"{site}.{kind}": count for (site, kind), count
                              in sorted(self.opportunities.items())},
            "injected": {f"{site}.{kind}": count for (site, kind), count
                         in sorted(self.injected.items())},
            "recoveries": {f"{site}.{action}": count
                           for (site, action), count
                           in sorted(self.recoveries.items())},
            "trace_length": len(self.trace),
            "trace_digest": self.trace.digest(),
        }
