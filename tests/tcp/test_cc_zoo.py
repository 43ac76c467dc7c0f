"""Unit dynamics tests for the congestion-control zoo.

Each algorithm's window dynamics are exercised at the hook level — a
stub sender drives :class:`~repro.tcp.cc_zoo.BbrLikeCC` round by round
so every phase transition is deterministic and inspectable — plus a
small end-to-end smoke per algorithm over the scriptable lossy path.
"""


import pytest

from repro.sim import Simulator
from repro.tcp import TcpFlow
from repro.tcp.cc_zoo import BbrLikeCC, CompoundCC, HighSpeedCC, ScalableCC
from repro.tcp.congestion import MIN_SSTHRESH

from tests.tcp.helpers import build_path

ZOO = ("compound", "scalable", "hstcp", "bbr")


def _avoiding(cls, cwnd):
    """An instance at window ``cwnd``, already in congestion avoidance."""
    cc = cls(initial_cwnd=cwnd)
    cc.ssthresh = MIN_SSTHRESH
    return cc


class TestCompound:
    def test_slow_start_grows_loss_window(self):
        cc = CompoundCC()
        cc.on_ack(4)
        assert cc.cwnd == pytest.approx(6.0)
        assert cc._dwnd == 0.0

    def test_delay_window_grows_while_backlog_below_gamma(self):
        cc = _avoiding(CompoundCC, 64)
        cc.on_rtt_sample(0.1, 0.0)  # base RTT; starts the cadence
        cc.on_rtt_sample(0.1, 0.2)  # no queueing: diff = 0 < gamma
        expected = max(0.125 * 64 ** 0.75 - 1.0, 0.0)
        assert cc._dwnd == pytest.approx(expected)
        assert cc.cwnd == pytest.approx(64 + expected)
        assert cc.delay_backoffs == 0

    def test_queueing_delay_sheds_delay_window(self):
        cc = _avoiding(CompoundCC, 64)
        cc.on_rtt_sample(0.1, 0.0)
        cc.on_rtt_sample(0.1, 0.2)  # grow dwnd first
        assert cc._dwnd > 0
        cc.on_rtt_sample(0.3, 0.4)  # 3x base RTT: diff >> gamma
        assert cc._dwnd == 0.0
        assert cc.delay_backoffs == 1
        assert cc.cwnd == pytest.approx(64.0)

    def test_loss_halves_the_compound_window(self):
        cc = _avoiding(CompoundCC, 64)
        cc.enter_recovery(flight_size=64.0)
        assert cc.ssthresh == pytest.approx(32.0)
        assert cc.cwnd == pytest.approx(35.0)  # +3 dup-ACK inflation
        cc.exit_recovery()
        assert cc.cwnd == pytest.approx(32.0)

    def test_timeout_resets_both_windows(self):
        cc = _avoiding(CompoundCC, 64)
        cc.on_rtt_sample(0.1, 0.0)
        cc.on_rtt_sample(0.1, 0.2)
        cc.on_timeout(flight_size=64.0)
        assert cc.cwnd == 1.0
        assert cc._dwnd == 0.0
        assert cc.ssthresh == pytest.approx(32.0)
        assert cc.timeouts == 1

    def test_no_delay_update_during_recovery(self):
        cc = _avoiding(CompoundCC, 64)
        cc.on_rtt_sample(0.1, 0.0)
        cc.enter_recovery(flight_size=64.0)
        inflated = cc.cwnd
        cc.on_rtt_sample(0.1, 0.2)  # would grow dwnd outside recovery
        assert cc.cwnd == inflated


class TestScalable:
    def test_reno_region_below_legacy_window(self):
        cc = _avoiding(ScalableCC, 8)
        cc.on_ack(1)
        assert cc.cwnd == pytest.approx(8 + 1.0 / 8)

    def test_mimd_region_constant_per_ack_increase(self):
        cc = _avoiding(ScalableCC, 100)
        cc.on_ack(1)
        assert cc.cwnd == pytest.approx(100.01)
        # Per RTT (one window of ACKs) the growth is proportional to
        # the window — the multiplicative increase.
        cc.on_ack(99)
        assert cc.cwnd == pytest.approx(101.0)

    def test_fixed_small_decrease_above_legacy_window(self):
        cc = _avoiding(ScalableCC, 100)
        cc.enter_recovery(flight_size=100.0)
        assert cc.ssthresh == pytest.approx(87.5)  # 1 - 0.125

    def test_reno_halving_below_legacy_window(self):
        cc = _avoiding(ScalableCC, 8)
        cc.enter_recovery(flight_size=8.0)
        assert cc.ssthresh == pytest.approx(4.0)


class TestHighSpeed:
    def test_reno_regime_at_and_below_low_window(self):
        cc = HighSpeedCC()
        assert cc.decrease_factor(38.0) == 0.5
        assert cc.decrease_factor(10.0) == 0.5
        assert cc.increase_per_rtt(38.0) == 1.0

    def test_response_function_endpoints_and_monotonicity(self):
        cc = HighSpeedCC()
        assert cc.decrease_factor(83000.0) == pytest.approx(0.1)
        windows = [50.0, 200.0, 1000.0, 10000.0, 83000.0]
        decreases = [cc.decrease_factor(w) for w in windows]
        assert decreases == sorted(decreases, reverse=True)
        increases = [cc.increase_per_rtt(w) for w in windows]
        assert increases == sorted(increases)
        assert increases[-1] > 1.0

    def test_loss_sheds_less_than_half_at_large_windows(self):
        cc = _avoiding(HighSpeedCC, 1000)
        cc.enter_recovery(flight_size=1000.0)
        assert cc.ssthresh > 500.0
        assert cc.ssthresh >= MIN_SSTHRESH

    def test_ca_growth_uses_response_function(self):
        cc = _avoiding(HighSpeedCC, 1000)
        expected = 1000 + cc.increase_per_rtt(1000.0) / 1000.0
        cc.on_ack(1)
        assert cc.cwnd == pytest.approx(expected)


class _Clock:
    def __init__(self):
        self.now = 0.0


class _StubSender:
    """Minimal sender surface BbrLikeCC reads through bind()."""

    def __init__(self):
        self.sim = _Clock()
        self.snd_una = 0
        self.snd_nxt = 0
        self.retransmits = 0
        self.flight_size = 0


def _bound_bbr():
    cc = BbrLikeCC()
    sender = _StubSender()
    cc.bind(sender)
    return cc, sender


def _run_round(cc, sender, delivered, rtt=0.1):
    """Drive exactly one delivery round through the model."""
    cc.on_rtt_sample(rtt, sender.sim.now)
    if cc._round_end_seq is None:
        sender.snd_nxt = sender.snd_una + delivered
        cc.on_ack(0)  # records the round frontier
    sender.sim.now += rtt
    sender.snd_una = sender.snd_nxt
    sender.snd_nxt = sender.snd_una + delivered
    cc.on_ack(delivered)


class TestBbrLike:
    def test_pacing_interval_before_first_estimate(self):
        cc = BbrLikeCC()
        assert cc.pacing_interval() == 0.0  # send back-to-back

    def test_pacing_interval_from_bandwidth_model(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        assert cc.bw == pytest.approx(100.0)  # 10 pkts / 0.1 s
        assert cc.pacing_interval() == pytest.approx(
            1.0 / (cc.pacing_gain * 100.0))

    def test_min_rtt_filter_is_monotone(self):
        cc = BbrLikeCC()
        cc.on_rtt_sample(0.2, 0.0)
        cc.on_rtt_sample(0.1, 1.0)
        cc.on_rtt_sample(0.3, 2.0)
        assert cc.min_rtt == 0.1

    def test_startup_to_drain_on_bandwidth_plateau(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        _run_round(cc, sender, delivered=20)  # 2x growth: still filling
        assert cc.state == "startup"
        for _ in range(cc.FULL_BW_ROUNDS):
            _run_round(cc, sender, delivered=20)  # plateau
        assert cc.state == "drain"
        assert cc.pacing_gain == cc.DRAIN_GAIN
        assert cc.bw_probe_transitions == 1
        # Drain caps the flight at the BDP so the queue can empty.
        assert cc.cwnd == pytest.approx(max(cc._bdp(), cc.MIN_CWND))

    def test_drain_to_probe_bw_when_flight_reaches_bdp(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        _run_round(cc, sender, delivered=20)
        for _ in range(cc.FULL_BW_ROUNDS):
            _run_round(cc, sender, delivered=20)
        assert cc.state == "drain"
        sender.flight_size = int(cc._bdp() / 2)
        _run_round(cc, sender, delivered=20)
        assert cc.state == "probe_bw"
        assert cc.pacing_gain == BbrLikeCC.PROBE_GAINS[0]
        assert cc.bw_probe_transitions == 2

    def test_probe_bw_gain_cycle_advances_once_per_round(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        _run_round(cc, sender, delivered=20)
        for _ in range(cc.FULL_BW_ROUNDS):
            _run_round(cc, sender, delivered=20)
        sender.flight_size = 0
        _run_round(cc, sender, delivered=20)
        assert cc.state == "probe_bw"
        seen = []
        for _ in range(len(BbrLikeCC.PROBE_GAINS)):
            _run_round(cc, sender, delivered=20)
            seen.append(cc.pacing_gain)
        # One full lap through the cycle, counted as one probe.
        assert seen == list(BbrLikeCC.PROBE_GAINS[1:]) + \
            [BbrLikeCC.PROBE_GAINS[0]]
        assert cc.bw_probe_transitions == 3

    def test_loss_discounts_but_never_collapses(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        _run_round(cc, sender, delivered=20)
        bw_before = cc.bw
        cwnd_before = cc.cwnd
        cc.enter_recovery(flight_size=20.0)
        assert cc.bw == pytest.approx(bw_before * cc.LOSS_BETA)
        assert cc.cwnd == cwnd_before  # the model's window survives
        assert cc.fast_recoveries == 1
        # Loss during startup concludes the pipe is full.
        assert cc.state == "drain"

    def test_at_most_one_discount_per_round(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        _run_round(cc, sender, delivered=20)
        cc.enter_recovery(flight_size=20.0)
        discounted = cc.bw
        cc.enter_recovery(flight_size=20.0)  # same overshoot event
        assert cc.bw == pytest.approx(discounted)

    def test_tainted_round_yields_no_bandwidth_sample(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        samples_before = list(cc._bw_samples)
        cc.enter_recovery(flight_size=10.0)  # taints the open round
        _run_round(cc, sender, delivered=50)  # jump-ACK delivery
        assert [s for s in cc._bw_samples] == \
            [s * cc.LOSS_BETA for s in samples_before]

    def test_round_with_retransmission_yields_no_sample(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        n_samples = len(cc._bw_samples)
        sender.retransmits += 1  # a hole repair inside the round
        _run_round(cc, sender, delivered=50)
        assert len(cc._bw_samples) == n_samples

    def test_timeout_restarts_conservatively_but_keeps_model(self):
        cc, sender = _bound_bbr()
        _run_round(cc, sender, delivered=10)
        _run_round(cc, sender, delivered=20)
        bw_before = cc.bw
        cc.on_timeout(flight_size=20.0)
        assert cc.cwnd == cc.MIN_CWND
        assert cc.bw == pytest.approx(bw_before * cc.LOSS_BETA)
        assert cc.timeouts == 1

    def test_unbound_hooks_are_safe(self):
        # Direct hook-level use without a sender (as make_cc probing does).
        cc = BbrLikeCC()
        cc.on_ack(5)
        cc.on_partial_ack(2)
        assert cc.cwnd == cc.MIN_CWND


class TestConstants:
    """Each algorithm's constants are what the algorithm is, not a
    per-flow setting: each keeps its published value, inside the domain
    its update rule needs (a back-off factor in (0, 1), a gain above 1)."""

    CASES = [
        (CompoundCC, "ALPHA", 0.125, lambda x: x > 0),
        (CompoundCC, "BETA", 0.5, lambda x: 0 < x < 1),
        (CompoundCC, "K", 0.75, lambda x: 0 < x < 1),
        (CompoundCC, "GAMMA", 30.0, lambda x: x > 0),
        (CompoundCC, "ZETA", 1.0, lambda x: x > 0),
        (ScalableCC, "INCREASE", 0.01, lambda x: x > 0),
        (ScalableCC, "DECREASE", 0.125, lambda x: 0 < x < 1),
        (ScalableCC, "LEGACY_WINDOW", 16.0, lambda x: x >= 1),
        (HighSpeedCC, "LOW_WINDOW", 38.0, lambda x: x >= 1),
        (HighSpeedCC, "HIGH_WINDOW", 83000.0,
         lambda x: x > HighSpeedCC.LOW_WINDOW),
        (HighSpeedCC, "HIGH_DECREASE", 0.1, lambda x: 0 < x <= 0.5),
        (BbrLikeCC, "STARTUP_GAIN", 2.885, lambda x: x > 1),
        (BbrLikeCC, "DRAIN_GAIN", 0.3466, lambda x: 0 < x < 1),
        (BbrLikeCC, "CWND_GAIN", 2.0, lambda x: x >= 1),
        (BbrLikeCC, "BW_WINDOW", 10, lambda x: x >= 1),
        (BbrLikeCC, "FULL_BW_ROUNDS", 3, lambda x: x >= 1),
        (BbrLikeCC, "MIN_CWND", 4.0, lambda x: x >= 1),
        (BbrLikeCC, "LOSS_BETA", 0.9, lambda x: 0 < x <= 1),
    ]

    @pytest.mark.parametrize("cls, name, value, in_domain", CASES,
                             ids=[f"{c.__name__}.{n}" for c, n, _, _ in CASES])
    def test_published_value_in_domain(self, cls, name, value, in_domain):
        constant = getattr(cls, name)
        assert constant == value
        assert in_domain(constant)


class TestZooEndToEnd:
    @pytest.mark.parametrize("cc", ZOO)
    def test_completes_with_losses(self, cc):
        sim = Simulator()
        a, b, queue = build_path(sim, drop_seqs={5, 17, 18},
                                 buffer_packets=50)
        flow = TcpFlow(sim, a, b, size_packets=80, cc=cc)
        sim.run(until=120.0)
        assert flow.completed
        assert flow.receiver.rcv_nxt == 80
        assert queue.scripted_drops == 3

    def test_bbr_converges_to_the_line_rate(self):
        """A long BBR flow reaches probe_bw with the model pinned near
        the bottleneck rate (10 Mbps / 1000 B = 1250 pps) and the
        propagation RTT (4 x 10 ms)."""
        sim = Simulator()
        a, b, _ = build_path(sim, buffer_packets=40)
        flow = TcpFlow(sim, a, b, size_packets=None, cc="bbr")
        sim.run(until=20.0)
        cc = flow.sender.cc
        assert cc.state == "probe_bw"
        assert 600.0 <= cc.bw <= 1400.0
        assert 0.039 <= cc.min_rtt <= 0.08
        assert cc.rounds > 50
        # Rate-based operation forces the paced-departure path on.
        assert flow.sender.pacing
        assert flow.sender.pacing_releases > 0

    def test_compound_sheds_under_standing_queue(self):
        """On a sawtoothing moderate buffer the delay window grows while
        the queue is empty and sheds once queueing delay appears."""
        sim = Simulator()
        a, b, _ = build_path(sim, buffer_packets=60)
        flow = TcpFlow(sim, a, b, size_packets=None, cc="compound")
        sim.run(until=30.0)
        assert flow.sender.cc.delay_backoffs > 0
