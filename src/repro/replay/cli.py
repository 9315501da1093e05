"""Command-line front end for replay journals.

    repro-replay info    crash.journal
    repro-replay verify  crash.journal [--relaxed] [--json out.json]
    repro-replay bisect  crash.journal [--json out.json]
    repro-replay minimize crash.journal -o minimal.journal
    repro-replay record  --scenario wild-writes --seed 1234 -o crash.journal

``verify`` exits 0 when the journal replays without divergence AND
every recorded failure check re-evaluates true — the property CI gates
on.  ``record`` is a convenience wrapper around the chaos campaign's
recordable scenarios (strict-guest mode, journal always kept).
"""

from __future__ import annotations

import json
import sys
from argparse import ArgumentParser
from typing import List, Optional

from repro.errors import ReproError
from repro.replay.journal import load_journal, save_journal
from repro.replay.minimize import minimize_journal
from repro.replay.replayer import bisect_divergence, replay_journal


def _cmd_info(args) -> int:
    journal = load_journal(args.journal)
    header = journal.header
    print(f"scenario:  {header.get('scenario') or '-'}")
    print(f"seed:      {header.get('seed')}")
    print(f"monitor:   {header.get('monitor')}")
    print(f"version:   {journal.version}")
    print(f"frames:    {len(journal.frames)}")
    print(f"bytes:     {journal.size_bytes}")
    print(f"complete:  {journal.complete}")
    print(f"truncated: {journal.truncated}")
    for kind, count in sorted(journal.counts_by_kind().items()):
        print(f"  {kind:<14} {count}")
    end = journal.end_frame
    if end is not None:
        print(f"violations: {end.data.get('violations')}")
        print(f"checks:     {end.data.get('checks')}")
    return 0


def _cmd_verify(args) -> int:
    journal = load_journal(args.journal)
    result = replay_journal(journal, strict=not args.relaxed)
    print(f"frames applied: {result.frames_applied}")
    print(f"final digest:   {result.final_digest[:16]}")
    for name, passed in sorted(result.checks.items()):
        print(f"check {name}: {'reproduced' if passed else 'MISSING'}")
    if result.divergence is not None:
        d = result.divergence
        print(f"DIVERGED at frame {d.frame_index} ({d.kind}): "
              f"{d.message}")
        print(f"  expected: {d.expected}")
        print(f"  actual:   {d.actual}")
        print(f"  instret={d.instret} cycle={d.cycle}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"experiment": "replay-verify",
                       "stats": result.stats()}, handle, indent=2)
    ok = result.ok and (result.reproduced or not result.checks)
    print("verdict: " + ("REPLAYS" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_bisect(args) -> int:
    journal = load_journal(args.journal)
    report = bisect_divergence(journal)
    if report is None:
        print("no divergence: the journal replays faithfully")
        return 0
    print(f"last good frame:  {report.last_good_frame}")
    print(f"first bad frame:  {report.first_bad_frame}")
    print(f"probe replays:    {report.probes_run}")
    if report.divergence is not None:
        d = report.divergence
        print(f"first divergent event: frame {d.frame_index} "
              f"({d.kind}) — {d.message}")
        print(f"  expected: {d.expected}")
        print(f"  actual:   {d.actual}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"experiment": "replay-bisect",
                       "report": report.to_dict()}, handle, indent=2)
    return 1


def _cmd_minimize(args) -> int:
    journal = load_journal(args.journal)
    result = minimize_journal(journal, max_tests=args.max_tests)
    print(f"core frames: {result.original_core_frames} -> "
          f"{result.minimized_core_frames} "
          f"({result.tests_run} test replays)")
    if not result.reduced:
        print("journal is already minimal")
    save_journal(result.journal, args.output)
    print(f"minimized journal written to {args.output} "
          f"({result.journal.size_bytes} bytes)")
    return 0


def _cmd_record(args) -> int:
    from repro.faults.campaign import RECORDABLE, run_scenario
    if args.scenario not in RECORDABLE:
        print(f"scenario {args.scenario!r} is not recordable "
              f"(pick from {', '.join(RECORDABLE)})", file=sys.stderr)
        return 2
    import os
    journal_dir = os.path.dirname(os.path.abspath(args.output))
    result = run_scenario(args.scenario, args.seed, record=True,
                          strict_guest=args.strict_guest,
                          journal_dir=journal_dir, journal_all=True)
    emitted = result.get("journal")
    if emitted is None:
        print("scenario produced no journal", file=sys.stderr)
        return 1
    if emitted != args.output:
        os.replace(emitted, args.output)
    status = "ok" if result["ok"] else "FAIL"
    print(f"{args.scenario} seed={args.seed} {status}")
    for violation in result["violations"]:
        print(f"  violation: {violation}")
    print(f"journal written to {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = ArgumentParser(
        prog="repro-replay",
        description="Inspect, verify, bisect and minimize replay "
                    "journals from the flight recorder.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="summarise a journal")
    p.add_argument("journal")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("verify",
                       help="replay a journal and cross-check it")
    p.add_argument("journal")
    p.add_argument("--relaxed", action="store_true",
                   help="apply inputs only; skip evidence checks")
    p.add_argument("--json", metavar="PATH",
                   help="write replay stats as JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bisect",
                       help="locate the first divergent step")
    p.add_argument("journal")
    p.add_argument("--json", metavar="PATH",
                   help="write the bisect report as JSON")
    p.set_defaults(func=_cmd_bisect)

    p = sub.add_parser("minimize",
                       help="delta-debug a failing journal")
    p.add_argument("journal")
    p.add_argument("-o", "--output", required=True,
                   help="where to write the minimized journal")
    p.add_argument("--max-tests", type=int, default=64,
                   help="replay budget for the search")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("record",
                       help="record a chaos scenario to a journal")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--strict-guest", action="store_true",
                   help="treat a dead guest as a violation")
    p.add_argument("-o", "--output", required=True,
                   help="where to write the journal")
    p.set_defaults(func=_cmd_record)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
