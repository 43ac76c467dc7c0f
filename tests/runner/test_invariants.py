"""Invariant checker: passes on healthy runs, catches tampered state."""

import pytest

from repro.errors import ConfigurationError, InvariantViolation, QueueError
from repro.net import DropTailQueue, build_dumbbell
from repro.net.packet import Packet
from repro.runner import (
    InvariantMonitor,
    check_link,
    check_network_conservation,
    verify_network,
)
from repro.sim import Simulator
from repro.tcp import TcpFlow


def busy_dumbbell(sim, until=3.0):
    net = build_dumbbell(sim, n_pairs=2, bottleneck_rate="5Mbps",
                         buffer_packets=15, rtts=["40ms"])
    flows = [TcpFlow(sim, s, r, size_packets=10_000)
             for s, r in net.flow_pairs()]
    sim.run(until=until)
    return net, flows


class TestHealthyNetwork:
    def test_verify_passes_mid_run(self):
        sim = Simulator()
        net, _ = busy_dumbbell(sim)
        verify_network(net)

    def test_verify_accepts_wrapper_and_bare_network(self):
        sim = Simulator()
        net, _ = busy_dumbbell(sim)
        verify_network(net)
        verify_network(net.network)


class TestTamperDetection:
    def test_lost_packet_counter_detected(self):
        sim = Simulator()
        net, _ = busy_dumbbell(sim)
        net.senders[0].packets_sent += 5  # phantom injections
        with pytest.raises(InvariantViolation, match="conservation"):
            check_network_conservation(net)

    def test_phantom_delivery_detected(self):
        sim = Simulator()
        net, _ = busy_dumbbell(sim)
        net.receivers[0].packets_received += 3
        with pytest.raises(InvariantViolation, match="difference"):
            verify_network(net)

    def test_queue_byte_corruption_detected(self):
        sim = Simulator()
        queue = DropTailQueue(sim, capacity_packets=10)
        queue.enqueue(Packet(src=1, dst=2, payload=960))
        queue._bytes -= 1
        with pytest.raises((InvariantViolation, QueueError)):
            queue.check_invariants()

    def test_negative_link_counter_detected(self):
        sim = Simulator()
        net, _ = busy_dumbbell(sim)
        link = net.bottleneck_link
        link.packets_dropped = -1
        with pytest.raises(InvariantViolation, match="negative"):
            check_link(link, sim.now, "bottleneck")

    def test_busy_time_beyond_elapsed_detected(self):
        sim = Simulator()
        net, _ = busy_dumbbell(sim)
        link = net.bottleneck_link
        link.busy_time = sim.now + 10.0
        with pytest.raises(InvariantViolation, match="busy"):
            check_link(link, sim.now, "bottleneck")


class TestInvariantMonitor:
    def test_monitor_audits_periodically(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=2, bottleneck_rate="5Mbps",
                             buffer_packets=15, rtts=["40ms"])
        _flows = [TcpFlow(sim, s, r, size_packets=10_000)
                 for s, r in net.flow_pairs()]
        monitor = InvariantMonitor(sim, net, period=0.5, t_stop=3.0)
        sim.run(until=3.0)
        assert monitor.checks_run == 6

    def test_monitor_raises_mid_run_when_a_counter_is_corrupted(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=2, bottleneck_rate="5Mbps",
                             buffer_packets=15, rtts=["40ms"])
        _flows = [TcpFlow(sim, s, r, size_packets=10_000)
                 for s, r in net.flow_pairs()]
        InvariantMonitor(sim, net, period=0.5)
        # Corrupt a counter partway through; the next audit must catch
        # it near its cause instead of the run finishing quietly.
        sim.call_at(1.1, lambda: setattr(
            net.senders[0], "packets_sent", net.senders[0].packets_sent + 99))
        with pytest.raises(InvariantViolation, match="conservation"):
            sim.run(until=5.0)
        assert sim.now < 2.0  # caught by the audit right after the tamper

    def test_bad_period_rejected(self):
        sim = Simulator()
        net = build_dumbbell(sim, n_pairs=1, bottleneck_rate="5Mbps",
                             buffer_packets=15, rtts=["40ms"])
        with pytest.raises(ConfigurationError):
            InvariantMonitor(sim, net, period=0.0)
