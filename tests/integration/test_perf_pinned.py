"""Exact outputs of the performance layer.

The other perf tests check orderings and tolerances; these compare with
``==``.  The values were recorded from the tree and must not move when
the run loop, the stack set-up or the per-stack pricing is rewritten:
the same events fire, the same cycles are charged, and every float is
summed in the same order.  Re-record them only with a change that means
to move the measurement, and say so.
"""

import pytest

from repro.perf.analytic import predict_demanded_load
from repro.perf.load import measure_load
from repro.perf.netmodel import (
    NetEventCounts,
    demanded_net_load,
    measure_net_events,
)
from repro.workloads.micro import disk_only, net_only
from repro.workloads.streaming import run_streaming

STACKS = ("bare", "lvmm", "fullvmm")

#: stack -> (demanded_load, achieved_rate_bps, segments_sent,
#: interrupts, breakdown) of ``measure_load(stack, 150e6, 0.12)``.
LOAD = {
    "bare": (0.2096717857142857, 137220266.6666667, 2, 1486,
             {"driver": 1063000, "guest": 29153374, "interrupt": 1486000}),
    "lvmm": (0.7838825132275132, 137220266.6666667, 2, 1486,
             {"driver": 349250, "world_switch": 83933220,
              "emulation": 2123400, "guest": 29145166,
              "interrupt": 2972000}),
    "fullvmm": (4.932974417989418, 137220266.6666667, 2, 1486,
                {"emulation": 377578370, "world_switch": 83933220,
                 "guest": 29145166, "copy": 252236976,
                 "interrupt": 2972000}),
}

#: stack -> (demanded_load, interrupts, breakdown) with a debugger
#: polling the stub at 2 kHz.
LOAD_POLLED = {
    "bare": (0.21522734126984128, 1486,
             {"driver": 1063000, "guest": 29993374, "interrupt": 1486000}),
    "lvmm": (0.806676164021164, 1486,
             {"driver": 349250, "world_switch": 83933220,
              "emulation": 5569800, "guest": 29145166,
              "interrupt": 2972000}),
}

#: stack -> ((demanded_load, bytes_moved, interrupts) of
#: ``disk_only(stack, 0.15)``, the same of ``net_only(stack, 100e6, 0.15)``).
MICRO = {
    "bare": ((0.0002747936507936508, 12582912, 6),
             (0.08572244973544974, 1048576, 859)),
    "lvmm": ((0.0022206349206349207, 12582912, 6),
             (0.3358737195767196, 1048576, 859)),
    "fullvmm": ((1.2201703492063491, 12582912, 6),
                (1.5073171058201058, 1048576, 859)),
}

ANALYTIC_RATES = (10e6, 33.3e6, 150e6, 400e6)
ANALYTIC = {
    "bare": [0.017447834733932736, 0.05209136902907538,
             0.22560640989787994, 0.5973181512620714],
    "lvmm": [0.0785117026889135, 0.20907444614455814,
             0.8630088736670358, 2.263896678985111],
    "fullvmm": [0.4089815638557313, 0.9987244806554583,
                3.9525012356137474, 10.280214935181633],
}

#: rate -> (events, achieved bps, stack -> demanded load) for the TCP
#: workload with four subscribers over 10 ms.
NET = {
    30e6: (NetEventCounts(bytes_tx=4088000.0, bytes_rx=0.0,
                          frames_tx=3200.0, frames_rx=3200.0,
                          tcp_segments=6400.0, nic_interrupts=6400.0,
                          handshakes=400.0, ticks=1000.0),
           32704000.0,
           {"bare": 0.08139619047619048, "lvmm": 0.47361555555555557,
            "fullvmm": 2.1832663492063493}),
    120e6: (NetEventCounts(bytes_tx=15184000.0, bytes_rx=0.0,
                           frames_tx=11200.0, frames_rx=10800.0,
                           tcp_segments=22000.0, nic_interrupts=22000.0,
                           handshakes=400.0, ticks=1000.0),
            121472000.0,
            {"bare": 0.2657126984126984, "lvmm": 1.56928,
             "fullvmm": 7.146067301587301}),
}

#: Uneven counts, so every term of the price is a non-round float.
UNEVEN_EVENTS = NetEventCounts(
    bytes_tx=1234567.89, bytes_rx=98765.4321, frames_tx=833.3,
    frames_rx=411.7, tcp_segments=1245.0, nic_interrupts=622.5,
    handshakes=12.5, ticks=1000.0)
UNEVEN_LOAD = {"bare": 0.02040279206277381, "lvmm": 0.0864634120627738,
               "fullvmm": 0.41926037703515473}


@pytest.mark.parametrize("stack", STACKS)
def test_measure_load(stack):
    sample = measure_load(stack, 150e6, 0.12)
    assert (sample.demanded_load, sample.achieved_rate_bps,
            sample.segments_sent, sample.interrupts,
            sample.breakdown) == LOAD[stack]


@pytest.mark.parametrize("stack", sorted(LOAD_POLLED))
def test_measure_load_with_debugger_polling(stack):
    sample = measure_load(stack, 150e6, 0.12, debug_poll_hz=2000)
    assert (sample.demanded_load, sample.interrupts,
            sample.breakdown) == LOAD_POLLED[stack]


@pytest.mark.parametrize("stack", STACKS)
def test_microworkloads(stack):
    disk = disk_only(stack, 0.15)
    net = net_only(stack, 100e6, 0.15)
    assert ((disk.demanded_load, disk.bytes_moved, disk.interrupts),
            (net.demanded_load, net.bytes_moved, net.interrupts)) \
        == MICRO[stack]


def test_two_session_streaming():
    result = run_streaming("lvmm", [40e6, 60e6], 0.15)
    assert result.demanded_load == 0.9644806296296297
    assert [(session.bytes_sent, session.segments_sent,
             session.achieved_bps) for session in result.sessions] \
        == [(1048576, 1, 55924053.333333336),
            (2097152, 2, 111848106.66666667)]


@pytest.mark.parametrize("stack", STACKS)
def test_predict_demanded_load(stack):
    assert [predict_demanded_load(stack, rate)
            for rate in ANALYTIC_RATES] == ANALYTIC[stack]


@pytest.mark.parametrize("rate", sorted(NET))
def test_demanded_net_load(rate):
    events, achieved, loads = NET[rate]
    assert measure_net_events(rate, subscribers=4, sim_seconds=0.01) \
        == (events, achieved)
    assert {stack: demanded_net_load(stack, events)
            for stack in STACKS} == loads


def test_demanded_net_load_uneven_counts():
    assert {stack: demanded_net_load(stack, UNEVEN_EVENTS)
            for stack in STACKS} == UNEVEN_LOAD
