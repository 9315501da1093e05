"""Tests for the benchmark itself.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from harness import (NOMINAL_PROBE_S, OpLog, OpResult,  # noqa: E402
                     beyond, closed_loop, percentile, scale, tail_ok)
from tracer import ROOT, layer_self_ms, op_durations, self_times  # noqa: E402


class TestTailRule:
    def test_p90_needs_a_hundred_samples(self):
        assert beyond(100, 90) == 10
        assert tail_ok(100, 90)
        assert not tail_ok(99, 90)

    def test_p75_needs_forty_samples(self):
        assert tail_ok(40, 75)
        assert not tail_ok(39, 75)

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile([7.0], 90) == 7.0

    def test_failed_ops_fill_the_tail(self):
        samples = [1.0] * 95 + [float("inf")] * 5
        assert percentile(samples, 90) == 1.0
        assert percentile(samples + [float("inf")] * 6, 90) == float("inf")


class TestProbeScaling:
    def test_nominal_probe_leaves_time_unchanged(self):
        assert scale(2.5, NOMINAL_PROBE_S, NOMINAL_PROBE_S) == 2.5

    def test_slow_host_is_scaled_down(self):
        # The host ran at half speed: probes took twice the nominal.
        assert scale(4.0, 2 * NOMINAL_PROBE_S, 2 * NOMINAL_PROBE_S) \
            == pytest.approx(2.0)

    def test_uses_the_mean_of_both_probes(self):
        assert scale(3.0, 0.5 * NOMINAL_PROBE_S, 1.5 * NOMINAL_PROBE_S) \
            == pytest.approx(3.0)


class TestThroughput:
    def test_slow_ops_count_in_full(self):
        # 95 ops of 1 ms and 5 of 10 ms: the median does not move, the
        # throughput drops by about a third.
        log = OpLog(latencies_s=[1e-3] * 95 + [1e-2] * 5)
        log.host_s = sum(log.latencies_s)
        assert log.throughput() == pytest.approx(100 / 0.145)


def test_settle_runs_outside_the_timed_op():
    log = closed_loop(lambda index: OpResult(), 10.0, None, max_ops=3,
                      settle=lambda: sum(range(300_000)))
    assert log.attempted == 3
    assert max(log.latencies_s) < 1e-3


def _span(op, name, start, end, parent):
    return [op, name, start, end, parent]


class TestSelfTime:
    SPANS = [
        _span(0, ROOT, 0.0, 10.0, -1),        # 0
        _span(0, "rsp.client", 1.0, 9.0, 0),  # 1
        _span(0, "hw.bus", 2.0, 3.0, 1),      # 2
        _span(0, "hw.bus", 4.0, 6.0, 1),      # 3
        _span(0, "hw.uart.tx", 4.5, 5.0, 3),  # 4
        _span(1, ROOT, 20.0, 24.0, -1),       # 5
        _span(1, "hw.bus", 21.0, 22.0, 5),    # 6
    ]

    def test_self_time_subtracts_direct_children(self):
        totals = self_times(self.SPANS)
        assert totals[0][ROOT] == pytest.approx(2.0)
        assert totals[0]["rsp.client"] == pytest.approx(5.0)
        assert totals[0]["hw.bus"] == pytest.approx(2.5)
        assert totals[0]["hw.uart.tx"] == pytest.approx(0.5)

    def test_self_times_partition_the_op(self):
        totals = self_times(self.SPANS)
        durations = op_durations(self.SPANS)
        for op, names in totals.items():
            assert sum(names.values()) == pytest.approx(durations[op])

    def test_mean_per_op_in_scaled_ms(self):
        per_op = layer_self_ms(self.SPANS, {0: 1.0, 1: 0.5})
        # op 0: 2.5 s; op 1: 1 s scaled by 0.5 -> mean 1.5 s.
        assert per_op["hw.bus"] == pytest.approx(1500.0)


def _smoke():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--smoke"], capture_output=True, text=True, timeout=600,
        cwd=BENCH.parent)
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_smoke_counters_repeat_exactly():
    first, second = _smoke(), _smoke()
    assert set(first) == {"debug-roundtrip", "guest-kernel", "exec-slices",
                          "fig31-transfer"}
    assert first == second
