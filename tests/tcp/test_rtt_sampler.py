"""TcpSender's contiguous-run RTT sampler against the one it replaced.

The sender times only new segments, and every retransmission cancels
all timings in progress (Karn; BSD's ``t_rtttime = 0``).  So the timed
segments always form one run ``[_timed_base, high_water)``, and the
sender keeps only a deque of their send times.  The oracle here is the
previous bookkeeping, unchanged: a dict of per-segment send times plus
the set of retransmitted segments, scanned newest-first on every new
ACK.  Both run side by side on the same transfers, and must agree.

Each check covers three things:

* the sequence of ``rto.sample`` arguments is identical;
* no retransmitted segment is ever sampled (Karn);
* after every ACK, ``len(_send_times) == high_water - _timed_base``
  whenever ``_timed_base <= high_water``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import Network, Packet, PacketFlags
from repro.sim import Simulator
from repro.tcp.congestion import make_cc
from repro.tcp.receiver import TcpReceiver
from repro.tcp.rto import RtoEstimator
from repro.tcp.sack import TcpSackSender
from repro.tcp.sender import TcpSender

from tests.tcp.helpers import build_path

FAST = dict(max_examples=40, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])


class DictSetSampler:
    """The previous sampler: a send time per segment, a retransmitted set."""

    def __init__(self):
        self.send_times = {}
        self.retx_seqs = set()

    def on_emit(self, seq, retransmission, now):
        if retransmission:
            self.retx_seqs.add(seq)
            self.send_times.clear()
        else:
            self.send_times[seq] = now

    def on_new_ack(self, snd_una, ackno, now):
        """``(seq, rtt)`` of the sample this ACK yields, or None."""
        sample = None
        for seq in range(ackno - 1, snd_una - 1, -1):
            sent_at = self.send_times.get(seq)
            if sent_at is not None and seq not in self.retx_seqs:
                rtt = now - sent_at
                if rtt > 0:
                    sample = (seq, rtt)
                break
        for seq in range(snd_una, ackno):
            self.send_times.pop(seq, None)
            self.retx_seqs.discard(seq)
        return sample


class RecordingRto(RtoEstimator):
    def __init__(self):
        super().__init__()
        self.sampled = []

    def sample(self, rtt):
        self.sampled.append(rtt)
        super().sample(rtt)


class OracleChecked:
    """Mixin running :class:`DictSetSampler` beside a sender."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, rto=RecordingRto(), **kwargs)
        self.oracle = DictSetSampler()
        self.oracle_samples = []
        self.retransmitted = set()
        self.acks_checked = 0

    def _emit(self, seq, retransmission):
        if retransmission:
            self.retransmitted.add(seq)
        self.oracle.on_emit(seq, retransmission, self.sim.now)
        super()._emit(seq, retransmission)

    def _handle_new_ack(self, ackno):
        sample = self.oracle.on_new_ack(self.snd_una, ackno, self.sim.now)
        if sample is not None:
            seq, rtt = sample
            assert seq not in self.retransmitted, f"Karn: sampled {seq}"
            self.oracle_samples.append(rtt)
        super()._handle_new_ack(ackno)

    def deliver(self, packet):
        super().deliver(packet)
        if self._timed_base <= self.high_water:
            assert len(self._send_times) == self.high_water - self._timed_base
        self.acks_checked += 1


class CheckedSender(OracleChecked, TcpSender):
    pass


class CheckedSackSender(OracleChecked, TcpSackSender):
    pass


#: (sender class, congestion control, SACK receiver): Reno, NewReno,
#: Tahoe, SACK, and BBR, which is rate-based and so always paced.
VARIANTS = {
    "reno": (CheckedSender, "reno", False),
    "newreno": (CheckedSender, "newreno", False),
    "tahoe": (CheckedSender, "tahoe", False),
    "sack": (CheckedSackSender, "newreno", True),
    "bbr": (CheckedSender, "bbr", False),
}


def run_transfer(variant, size, buffer, drops, delayed_ack):
    sender_cls, cc, sack = VARIANTS[variant]
    sim = Simulator()
    a, b, _ = build_path(sim, drop_seqs=drops, buffer_packets=buffer)
    receiver = TcpReceiver(sim, b, port=2, expected_packets=size,
                           delayed_ack=delayed_ack, sack=sack)
    sender = sender_cls(sim, a, dst_address=b.address, dport=2, sport=1,
                        cc=make_cc(cc), total_packets=size)
    sender.start()
    sim.run(until=120.0)
    return sender, receiver


class TestAgainstDictSetSampler:
    @settings(**FAST)
    @given(variant=st.sampled_from(sorted(VARIANTS)),
           size=st.integers(20, 80),
           buffer=st.integers(4, 32),
           drops=st.sets(st.integers(0, 60), max_size=6),
           delayed_ack=st.booleans())
    def test_scripted_drops(self, variant, size, buffer, drops, delayed_ack):
        sender, receiver = run_transfer(variant, size, buffer, drops,
                                        delayed_ack)
        assert receiver.rcv_nxt == size
        assert sender.acks_checked > 0
        assert sender.oracle_samples  # the first ACK always samples
        assert sender.rto.sampled == sender.oracle_samples

    def test_losses_exercise_karn(self):
        # A loss-heavy Reno transfer: the comparison is not vacuous.
        sender, _ = run_transfer("reno", 80, 6, {3, 4, 5, 20, 21, 40}, True)
        assert sender.retransmits >= 6 and sender.retransmitted
        assert len(sender.rto.sampled) > 10
        assert sender.rto.sampled == sender.oracle_samples

    @settings(**FAST)
    @given(script=st.lists(
        st.one_of(st.integers(0, 6), st.just("rto")), max_size=40))
    def test_hand_built_acks(self, script):
        # ACKs advancing snd_una by 0 (a duplicate) to 6 segments, which
        # can reach past high_water, with timeouts interleaved.
        sim = Simulator()
        host = Network(sim).add_host("h")
        host.inject = lambda packet: True
        sender = CheckedSender(sim, host, dst_address=99, dport=1, sport=2)
        sender.start()

        def step(action):
            if action == "rto":
                sender._on_rto()
                return
            sender.deliver(Packet(src=99, dst=1, ack=sender.snd_una + action,
                                  flags=PacketFlags.ACK, dport=2, sport=1))

        for i, action in enumerate(script):
            sim.call_at(0.01 * (i + 1), step, action)
        # Bounded: nothing ever ACKs the last window, so the RTO timer
        # would back off and fire forever.
        sim.run(until=0.01 * (len(script) + 1))
        assert sender.rto.sampled == sender.oracle_samples
