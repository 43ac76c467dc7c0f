"""Direct state-machine tests for TcpSender edge cases.

These bypass the network: a sender is driven by hand-built ACK packets
so specific protocol corners are pinned down deterministically.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net import Network, Packet, PacketFlags
from repro.sim import Simulator
from repro.tcp import TcpSender


def make_sender(sim, total=None, **kwargs):
    net = Network(sim)
    host = net.add_host("h")
    # No routes needed: we capture injected packets instead of sending.
    sent = []
    host.inject = lambda pkt: sent.append(pkt) or True
    sender = TcpSender(sim, host, dst_address=99, dport=1, sport=2,
                       total_packets=total, **kwargs)
    return sender, sent


def ack(n, flags=PacketFlags.ACK):
    return Packet(src=99, dst=1, ack=n, flags=flags, dport=2, sport=1)


def deliver_later(sim, sender, *packets, gap=0.01):
    """Deliver packets through the event loop with time advancing."""
    t = gap
    for pkt in packets:
        sim.call_at(t, sender.deliver, pkt)
        t += gap
    sim.run(until=t)


class TestAckEdgeCases:
    def test_old_ack_ignored(self):
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        sender.deliver(ack(2))
        before = sender.snd_una
        sender.deliver(ack(1))  # stale cumulative ACK
        assert sender.snd_una == before

    def test_dup_ack_without_outstanding_data_ignored(self):
        sim = Simulator()
        sender, sent = make_sender(sim, total=2)
        sender.start()
        sender.deliver(ack(2))  # completes the flow
        assert sender.completed
        sender.deliver(ack(2))  # late duplicate: no crash, no state change
        assert sender.dup_acks == 0

    def test_two_dup_acks_do_not_trigger_retransmit(self):
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        sent.clear()
        sender.deliver(ack(0))
        sender.deliver(ack(0))
        assert sender.dup_acks == 2
        assert not sent  # nothing retransmitted yet
        assert not sender.in_recovery

    def test_third_dup_ack_retransmits_head(self):
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        sent.clear()
        for _ in range(3):
            sender.deliver(ack(0))
        assert sender.in_recovery
        assert any(pkt.seq == 0 and pkt.is_data for pkt in sent)
        assert sender.retransmits == 1

    def test_non_ack_packet_ignored(self):
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        data = Packet(src=99, dst=1, payload=960, seq=0, dport=2, sport=1)
        sender.deliver(data)  # data to a sender port: dropped silently
        assert sender.snd_una == 0

    def test_completion_fires_once(self):
        sim = Simulator()
        net = Network(sim)
        host = net.add_host("h")
        host.inject = lambda pkt: True
        done = []

        class RecordingSender(TcpSender):
            def _complete(self):
                done.append(sim.now)
                super()._complete()

        sender = RecordingSender(sim, host, dst_address=9, dport=1, sport=2,
                                 total_packets=4)
        sender.start()
        sender.deliver(ack(4))
        sender.deliver(ack(4))
        assert len(done) == 1
        assert sender.completed

    def test_cumulative_ack_beyond_rollback_point(self):
        """After go-back-N, an ACK above snd_nxt must not corrupt state."""
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        sender.deliver(ack(4))
        # Simulate a timeout rollback.
        sender._on_rto()
        assert sender.snd_nxt <= sender.high_water
        rollback_nxt = sender.snd_nxt
        jump = rollback_nxt + 5
        sender.deliver(ack(jump))
        assert sender.snd_una == jump
        assert sender.snd_nxt >= sender.snd_una
        assert sender.flight_size >= 0

    def test_rto_with_no_outstanding_data_is_noop(self):
        sim = Simulator()
        sender, sent = make_sender(sim, total=2)
        sender.start()
        sender.deliver(ack(2))
        timeouts_before = sender.cc.timeouts
        sender._on_rto()
        assert sender.cc.timeouts == timeouts_before


class TestWindowAccounting:
    def test_initial_window_respected(self):
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        assert len(sent) == 2  # initial cwnd of the default Reno

    def test_total_packets_limits_transmission(self):
        sim = Simulator()
        sender, sent = make_sender(sim, total=1)
        sender.start()
        assert len(sent) == 1

    def test_high_water_tracks_max_seq(self):
        sim = Simulator()
        sender, sent = make_sender(sim)
        sender.start()
        sender.deliver(ack(2))
        assert sender.high_water == sender.snd_nxt

    def test_double_start_rejected(self):
        sim = Simulator()
        sender, _ = make_sender(sim)
        sender.start()
        with pytest.raises(ConfigurationError):
            sender.start()

    def test_constructor_validation(self):
        sim = Simulator()
        net = Network(sim)
        host = net.add_host("h")
        with pytest.raises(ConfigurationError):
            TcpSender(sim, host, dst_address=9, dport=1, sport=2, mss=0)
        with pytest.raises(ConfigurationError):
            TcpSender(sim, host, dst_address=9, dport=3, sport=4, max_window=0)
        with pytest.raises(ConfigurationError):
            TcpSender(sim, host, dst_address=9, dport=5, sport=6,
                      total_packets=0)
