"""Integration: the guest's RX path and ARP control plane.

A host on the wire ARPs for the guest's address while the guest is
busy streaming; the guest's RX driver harvests the request off the
ring and replies — receive and transmit coexisting on one NIC, with
the data plane unperturbed.
"""

import pytest

from repro.guest.os import HiTactix
from repro.net import (
    ArpPacket,
    EthernetFrame,
    ETHERTYPE_ARP,
    make_request,
    parse_ipv4,
    parse_mac,
)
from repro.perf.costmodel import DEFAULT_COST_MODEL
from repro.perf.load import build_stack
from repro.sim.events import cycles_for_seconds

GUEST_MAC = parse_mac("02:00:00:00:00:10")
GUEST_IP = parse_ipv4("10.0.0.10")
HOST_MAC = parse_mac("02:00:00:00:00:99")
HOST_IP = parse_ipv4("10.0.0.99")


def setup(stack_name="lvmm", rate=50e6):
    machine, stack, dispatcher = build_stack(stack_name)
    wire = []
    machine.nic.wire = wire.append
    guest = HiTactix(machine, stack, rate)
    guest.enable_control_plane(GUEST_MAC, GUEST_IP)
    guest.register_handlers(dispatcher)
    guest.start()
    dispatcher.dispatch_pending()
    return machine, guest, dispatcher, wire


def run_for(machine, dispatcher, seconds):
    deadline = machine.queue.now + cycles_for_seconds(
        seconds, DEFAULT_COST_MODEL.cpu_hz)
    machine.queue.run_until(deadline, dispatcher.dispatch_pending)


def arp_request_frame(target_ip=GUEST_IP):
    request = make_request(HOST_MAC, HOST_IP, target_ip)
    return EthernetFrame(dst=b"\xff" * 6, src=HOST_MAC,
                         ethertype=ETHERTYPE_ARP,
                         payload=request.pack()).pack()


def arp_replies_on(wire):
    replies = []
    for raw in wire:
        frame = EthernetFrame.unpack(raw)
        if frame.ethertype == ETHERTYPE_ARP:
            replies.append((frame, ArpPacket.unpack(frame.payload)))
    return replies


class TestArpResponder:
    def test_guest_answers_for_its_ip(self):
        machine, guest, dispatcher, wire = setup()
        machine.nic.receive_frame(arp_request_frame())
        run_for(machine, dispatcher, 0.05)
        replies = arp_replies_on(wire)
        assert len(replies) == 1
        frame, packet = replies[0]
        assert packet.operation == 2
        assert packet.sender_mac == GUEST_MAC
        assert packet.sender_ip == GUEST_IP
        assert packet.target_mac == HOST_MAC
        assert frame.dst == HOST_MAC
        assert guest.arp_replies == 1

    def test_guest_ignores_other_ips(self):
        machine, guest, dispatcher, wire = setup()
        machine.nic.receive_frame(
            arp_request_frame(parse_ipv4("10.0.0.77")))
        run_for(machine, dispatcher, 0.05)
        assert not arp_replies_on(wire)
        assert guest.arp_replies == 0

    def test_garbage_frames_counted_and_dropped(self):
        machine, guest, dispatcher, wire = setup()
        machine.nic.receive_frame(bytes(64))
        run_for(machine, dispatcher, 0.05)
        assert guest.nic.rx.frames_received == 1
        assert guest.arp_replies == 0

    def test_many_requests_all_answered(self):
        machine, guest, dispatcher, wire = setup()
        for _ in range(8):
            machine.nic.receive_frame(arp_request_frame())
        run_for(machine, dispatcher, 0.1)
        assert guest.arp_replies == 8
        assert len(arp_replies_on(wire)) == 8

    def test_data_plane_keeps_streaming(self):
        """ARP service must not disturb the paced transfer."""
        machine, guest, dispatcher, wire = setup(rate=50e6)
        run_for(machine, dispatcher, 0.2)
        baseline_segments = guest.segments_sent
        for _ in range(4):
            machine.nic.receive_frame(arp_request_frame())
        run_for(machine, dispatcher, 0.2)
        assert guest.arp_replies == 4
        # Roughly another 0.2s worth of segments went out.
        assert guest.segments_sent >= baseline_segments + 1
        assert guest.nic.control_frames_sent == 4

    def test_rx_ring_replenished(self):
        """More requests than ring slots still all get served (the
        driver recycles descriptors)."""
        machine, guest, dispatcher, wire = setup()
        total = guest.nic.rx.ring_len + 10
        for _ in range(total):
            machine.nic.receive_frame(arp_request_frame())
            run_for(machine, dispatcher, 0.002)
        assert guest.arp_replies == total
