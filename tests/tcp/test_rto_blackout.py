"""TCP RTO exponential backoff under a long link blackout.

The fault model's contract with TCP: during an outage longer than the
backed-off RTO, a sender emits a slow trickle of probe retransmissions
(backoff doubling up to ``MAX_BACKOFF``), not a storm; when the link
returns, the next probe's ACK restores progress and the flow completes.
"""

from repro.net import Network
from repro.sim import Simulator
from repro.tcp import TcpFlow
from repro.tcp.rto import MAX_BACKOFF, RtoEstimator
from repro.units import parse_bandwidth


def build_faultable_path(sim, rate="2Mbps", delay="5ms"):
    """a -- r -- b, returning the r->b bottleneck link for fault control."""
    net = Network(sim)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.connect(a, r, rate=parse_bandwidth(rate) * 10.0, delay=delay)
    iface_rb, _ = net.connect(r, b, rate=rate, delay=delay, queue_ab=200)
    net.compute_routes()
    return a, b, iface_rb.link


class TestBackoffCap:
    def test_on_timeout_caps_at_max_backoff(self):
        est = RtoEstimator()
        est.sample(0.1)
        for _ in range(10):  # 2**10 would pass the cap
            est.on_timeout()
        assert est.backoff == MAX_BACKOFF

    def test_backoff_clears_on_sample(self):
        est = RtoEstimator()
        est.sample(0.1)
        est.on_timeout()
        est.on_timeout()
        assert est.backoff == 4
        est.sample(0.1)
        assert est.backoff == 1


class TestBlackout:
    # The 2Mb/s bottleneck serializes ~250 pkts/s, so a 500-packet flow
    # is mid-transfer when the link dies at t=0.5 in every scenario.
    def run_blackout(self, blackout=15.0, down_at=0.5, size=500):
        sim = Simulator()
        a, b, link = build_faultable_path(sim)
        flow = TcpFlow(sim, a, b, size_packets=size, min_rto=0.2)
        sim.call_at(down_at, link.down)
        retransmits_at_up = []
        sim.call_at(down_at + blackout,
                    lambda: retransmits_at_up.append(flow.sender.retransmits))
        sim.call_at(down_at + blackout, link.up)
        sim.run(until=down_at + blackout + 60.0)
        return flow, retransmits_at_up[0]

    def test_backoff_reaches_cap_during_long_blackout(self):
        sim = Simulator()
        a, b, link = build_faultable_path(sim)
        flow = TcpFlow(sim, a, b, size_packets=500, min_rto=0.2)
        sim.call_at(0.5, link.down)
        max_backoff_seen = []
        # The cumulative backed-off RTO series 0.2*(1+2+4+...) passes 64x
        # within ~13 s, so probe the estimator just before recovery.
        sim.call_at(28.0, lambda: max_backoff_seen.append(flow.sender.rto.backoff))
        sim.call_at(28.0, link.up)
        sim.run(until=90.0)
        assert max_backoff_seen[0] == MAX_BACKOFF == 64

    def test_no_retransmission_storm_during_blackout(self):
        flow, retransmits_during = self.run_blackout(blackout=15.0)
        # Exponential backoff: a 15 s outage at base RTO ~0.2 s allows
        # at most ~7 probe retransmissions, nowhere near one per RTT.
        assert retransmits_during <= 10

    def test_flow_recovers_and_completes_after_up(self):
        flow, _ = self.run_blackout(blackout=15.0)
        assert flow.completed
        assert flow.receiver.rcv_nxt == 500

    def test_blackout_longer_than_max_rto_still_recovers(self):
        # RtoEstimator caps the interval at max_rto=60 s; a 70 s outage
        # therefore spans at least one full cap interval.
        flow, _ = self.run_blackout(blackout=70.0)
        assert flow.completed

    def test_timeouts_counted_once_per_probe(self):
        flow, retransmits_during = self.run_blackout(blackout=10.0)
        assert flow.cc.timeouts >= 1
        assert retransmits_during >= 1
