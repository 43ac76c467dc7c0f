"""The congestion-control zoo: beyond-Reno algorithms for buffer-sizing.

The paper derives its √n rule from Reno-style AIMD sawtooths.  "Updating
the Theory of Buffer Sizing" (Spang/Arslan/McKeown, 2021) shows the
required buffer changes qualitatively once senders pace their
transmissions or run rate-based control, and the Compound-TCP stability
study (Ghosh/Jagannathan/Raina) gives concrete window-dynamics
predictions for a delay+loss hybrid.  This module implements the four
algorithms the theory-validation harness
(:mod:`repro.experiments.cc_comparison`) compares:

``compound``
    Compound TCP: the window is the sum of a Reno-style loss window and
    a delay window grown while the estimated bottleneck backlog stays
    below a threshold (``gamma``) and shed multiplicatively once
    queueing delay appears.  Each shed is counted as a *delay backoff*
    (``tcp.delay_backoffs`` in the observability snapshot).

``scalable``
    Scalable TCP (Kelly): MIMD above the legacy region — a constant
    per-ACK increase (so the per-RTT ramp is proportional to the
    window) and a fixed small multiplicative decrease.  The sawtooth
    amplitude no longer scales with the window, the assumption the √n
    derivation leans on.

``hstcp``
    HighSpeed TCP (RFC 3649): the analytic response function —
    ``a(w)`` packets of additive increase per RTT and ``b(w)``
    multiplicative decrease, log-interpolated between the Reno regime
    at ``low_window`` and the aggressive regime at ``high_window``.

``bbr``
    A deterministic BBR-flavoured rate-based algorithm: windowed-max
    bandwidth filter over delivery-rate samples, monotone min-RTT
    filter, startup/drain/probe-bandwidth phases with the classic
    8-slot pacing-gain cycle, and a cwnd cap of ``cwnd_gain`` times the
    estimated BDP.  Phase changes are counted as *bw-probe transitions*
    (``tcp.bw_probe_transitions``).  Everything is driven by the
    simulation clock through the bound sender — no wall clock, no
    randomness — so runs are bit-identical across schedulers and seeds.

Each algorithm's constants are class attributes: they are what the
algorithm *is* (its back-off sets the buffer it needs), not a per-flow
setting.  :func:`repro.tcp.congestion.make_cc` builds them by name and
imports this module on the first zoo name.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.tcp.congestion import MIN_SSTHRESH, CongestionControl

__all__ = ["CompoundCC", "ScalableCC", "HighSpeedCC", "BbrLikeCC"]


class CompoundCC(CongestionControl):
    """Compound TCP: loss window plus delay window.

    The transmit window is ``lwnd + dwnd``.  The loss component follows
    Reno exactly.  Once per RTT the delay component compares the
    current round's mean RTT against the minimum ever observed to
    estimate the flow's backlog at the bottleneck,
    ``diff = cwnd * (1 - base_rtt / rtt)`` packets: below ``GAMMA`` the
    delay window grows by the binomial term ``ALPHA * cwnd**K - 1``;
    at or above it, queueing delay has appeared and ``dwnd`` is shed by
    ``ZETA * diff`` (a *delay backoff*).  On packet loss both
    components reduce by ``BETA`` so the total halves, as in the
    Compound paper.  The constants are Tan et al.'s / the Compound
    study's.
    """

    #: Delay-window increase gain and exponent (``ALPHA * cwnd**K - 1``).
    ALPHA = 0.125
    K = 0.75
    #: Multiplicative decrease on loss.
    BETA = 0.5
    #: Backlog, in packets, at which the delay window starts shedding.
    GAMMA = 30.0
    #: Shed gain: ``dwnd -= ZETA * diff``.
    ZETA = 1.0

    def __init__(self, initial_cwnd: float = 2.0):
        super().__init__(initial_cwnd)
        self._lwnd = float(initial_cwnd)
        self._dwnd = 0.0
        self._base_rtt = math.inf
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._next_update: Optional[float] = None
        self._in_recovery = False
        #: Delay-window sheds (the delay-based congestion signal firing).
        self.delay_backoffs = 0

    def _sync(self) -> None:
        self.cwnd = self._lwnd + self._dwnd

    def on_rtt_sample(self, rtt: float, now: float) -> None:
        if rtt < self._base_rtt:
            self._base_rtt = rtt
        self._rtt_sum += rtt
        self._rtt_count += 1
        if self._next_update is None:
            # First sample: start the per-RTT update cadence one RTT out.
            self._next_update = now + rtt
            return
        if now < self._next_update:
            return
        mean_rtt = self._rtt_sum / self._rtt_count
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._next_update = now + mean_rtt
        if self.in_slow_start or self._in_recovery:
            # dwnd only operates in congestion avoidance; during fast
            # recovery a _sync would wipe the dup-ACK inflation the
            # sender is transmitting against.
            return
        diff = self.cwnd * (1.0 - self._base_rtt / mean_rtt)
        if diff < self.GAMMA:
            self._dwnd += max(self.ALPHA * self.cwnd ** self.K - 1.0, 0.0)
        elif self._dwnd > 0.0:
            self._dwnd = max(self._dwnd - self.ZETA * diff, 0.0)
            self.delay_backoffs += 1
        self._sync()

    def on_ack(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self._lwnd + self._dwnd < self.ssthresh:
                self._lwnd += 1.0  # slow start (loss window only)
            else:
                self._lwnd += 1.0 / (self._lwnd + self._dwnd)
        self._sync()

    def enter_recovery(self, flight_size: float) -> None:
        self.ssthresh = max(flight_size * (1.0 - self.BETA), MIN_SSTHRESH)
        self._lwnd = max(self._lwnd * (1.0 - self.BETA), 1.0)
        self._dwnd = max(self.ssthresh - self._lwnd, 0.0)
        # Inflate by the three duplicate ACKs, as in the base class.
        self.cwnd = self._lwnd + self._dwnd + 3.0
        self._in_recovery = True
        self.fast_recoveries += 1

    def exit_recovery(self) -> None:
        self._in_recovery = False
        self._sync()  # deflate back to lwnd + dwnd

    def on_timeout(self, flight_size: float) -> None:
        self.ssthresh = max(flight_size / 2.0, MIN_SSTHRESH)
        self._lwnd = 1.0
        self._dwnd = 0.0
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._in_recovery = False
        self._sync()
        self.timeouts += 1

    def on_tahoe_loss(self, flight_size: float) -> None:  # pragma: no cover
        # Unreachable with has_fast_recovery=True; mirror on_timeout.
        self.on_timeout(flight_size)
        self.timeouts -= 1


class ScalableCC(CongestionControl):
    """Scalable TCP: MIMD dynamics above the legacy window.

    Per ACK in congestion avoidance the window grows by a constant
    ``INCREASE`` (so per RTT it grows by ``INCREASE * cwnd`` — the
    multiplicative increase), and a loss shrinks it by the fixed factor
    ``DECREASE`` instead of halving.  Below ``LEGACY_WINDOW`` packets
    the algorithm behaves exactly like Reno, per the Scalable TCP spec.
    """

    #: Per-ACK window increase in congestion avoidance, in packets.
    INCREASE = 0.01
    #: Multiplicative decrease on loss (β = 1 - DECREASE = 0.875).
    DECREASE = 0.125
    #: Below this window, in packets, the algorithm is Reno.
    LEGACY_WINDOW = 16.0

    def on_ack(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            elif self.cwnd < self.LEGACY_WINDOW:
                self.cwnd += 1.0 / self.cwnd  # Reno region
            else:
                self.cwnd += self.INCREASE  # MIMD region

    def enter_recovery(self, flight_size: float) -> None:
        if flight_size < self.LEGACY_WINDOW:
            self.ssthresh = max(flight_size / 2.0, MIN_SSTHRESH)
        else:
            self.ssthresh = max(flight_size * (1.0 - self.DECREASE),
                                MIN_SSTHRESH)
        self.cwnd = self.ssthresh + 3.0
        self.fast_recoveries += 1


class HighSpeedCC(CongestionControl):
    """HighSpeed TCP (RFC 3649): the analytic response function.

    In congestion avoidance the window grows ``a(w)`` packets per RTT
    (``a(w)/w`` per ACK) and a loss event shrinks it by the factor
    ``b(w)``.  Below ``LOW_WINDOW`` both match Reno (``a=1``,
    ``b=0.5``); above it ``b(w)`` is log-interpolated down to
    ``HIGH_DECREASE`` at ``HIGH_WINDOW``, and ``a(w)`` follows from the
    RFC's deployment path ``p(w) = 0.078 / w**1.2`` via
    ``a(w) = w**2 * p(w) * 2*b(w) / (2 - b(w))``.
    """

    #: RFC 3649's Low_Window, High_Window (packets) and High_Decrease.
    LOW_WINDOW = 38.0
    HIGH_WINDOW = 83000.0
    HIGH_DECREASE = 0.1
    _LOG_LOW = math.log(LOW_WINDOW)
    _LOG_SPAN = math.log(HIGH_WINDOW) - _LOG_LOW

    def decrease_factor(self, w: float) -> float:
        """``b(w)``: the multiplicative decrease at window ``w``."""
        if w <= self.LOW_WINDOW:
            return 0.5
        frac = min((math.log(w) - self._LOG_LOW) / self._LOG_SPAN, 1.0)
        return 0.5 + frac * (self.HIGH_DECREASE - 0.5)

    def increase_per_rtt(self, w: float) -> float:
        """``a(w)``: packets of per-RTT additive increase at window ``w``."""
        if w <= self.LOW_WINDOW:
            return 1.0
        b = self.decrease_factor(w)
        p = 0.078 / w ** 1.2
        return max((w * w * p * 2.0 * b) / (2.0 - b), 1.0)

    def on_ack(self, newly_acked: int) -> None:
        for _ in range(newly_acked):
            if self.cwnd < self.ssthresh:
                self.cwnd += 1.0  # slow start
            else:
                self.cwnd += self.increase_per_rtt(self.cwnd) / self.cwnd

    def enter_recovery(self, flight_size: float) -> None:
        b = self.decrease_factor(flight_size)
        self.ssthresh = max(flight_size * (1.0 - b), MIN_SSTHRESH)
        self.cwnd = self.ssthresh + 3.0
        self.fast_recoveries += 1


class BbrLikeCC(CongestionControl):
    """A deterministic BBR-flavoured rate-based algorithm.

    Model-based rather than loss-driven: a windowed-max filter over
    per-round delivery-rate samples estimates the bottleneck bandwidth,
    a monotone-min filter over Karn-valid samples estimates the
    propagation RTT, and the sender paces at ``pacing_gain * bw``
    (:meth:`pacing_interval`) with the window capped near the estimated
    BDP.  Phases:

    * **startup** — pacing gain ``STARTUP_GAIN`` (2/ln 2); exits to
      drain after ``FULL_BW_ROUNDS`` consecutive rounds without ~25%
      bandwidth growth;
    * **drain** — gain ``DRAIN_GAIN`` (the startup gain's reciprocal)
      until the flight drops to the BDP;
    * **probe_bw** — the classic 8-slot gain cycle
      ``1.25, 0.75, 1, 1, 1, 1, 1, 1``, advanced once per round.

    Rounds are delimited by ``snd_una`` passing the ``snd_nxt`` frontier
    recorded at the previous round start, and all timing comes from the
    bound sender's simulation clock — no wall clock, no randomness, so
    runs are bit-identical across scheduler backends.  Loss never
    collapses the window; it applies a gentle multiplicative discount
    (``LOSS_BETA``) to the bandwidth filter, BBRv2-style, which is what
    lets competing model-driven flows converge on a shared link —
    rate-based operation with loss demoted to a secondary signal, the
    regime the 2021 buffer-sizing update studies.
    """

    rate_based = True
    wants_pacing = True
    has_fast_recovery = True
    # Persist recovery until the pre-loss frontier is acked (NewReno
    # style): a model-driven window recovers several losses per window
    # without collapsing into timeout storms.
    recovery_until_recover = True

    #: The probe-bandwidth pacing-gain cycle (one slot per round).
    PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    #: Startup pacing gain (2/ln 2) and drain gain (its reciprocal).
    STARTUP_GAIN = 2.885
    DRAIN_GAIN = 0.3466
    #: In probe_bw the window is capped at CWND_GAIN x the estimated BDP.
    CWND_GAIN = 2.0
    #: Rounds the windowed-max bandwidth filter spans.
    BW_WINDOW = 10
    #: Rounds without ~25% bandwidth growth that end startup.
    FULL_BW_ROUNDS = 3
    #: Window floor, in packets.
    MIN_CWND = 4.0
    #: Bandwidth-filter discount per loss event (BBRv2-style).
    LOSS_BETA = 0.9

    def __init__(self, initial_cwnd: float = 2.0):
        super().__init__(initial_cwnd)
        self.cwnd = max(self.cwnd, self.MIN_CWND)
        self.state = "startup"
        self.pacing_gain = self.STARTUP_GAIN
        self.bw = 0.0  # packets/second, windowed max
        self.min_rtt = math.inf
        self.rounds = 0
        #: Phase transitions plus completed probe cycles — the
        #: bandwidth-probing cadence (tcp.bw_probe_transitions).
        self.bw_probe_transitions = 0
        self._sender = None
        self._bw_samples: deque = deque(maxlen=self.BW_WINDOW)
        self._round_end_seq: Optional[int] = None
        self._round_start_time = 0.0
        self._round_delivered = 0
        self._round_tainted = False
        self._round_retx = 0
        self._round_pace_rate = 0.0
        self._full_bw = 0.0
        self._stalled_rounds = 0
        self._cycle_index = 0

    # ------------------------------------------------------------------
    # Sender-facing hooks
    # ------------------------------------------------------------------
    def bind(self, sender) -> None:
        self._sender = sender

    def on_rtt_sample(self, rtt: float, now: float) -> None:
        if rtt < self.min_rtt:
            self.min_rtt = rtt

    def pacing_interval(self) -> float:
        if self.bw <= 0.0:
            return 0.0  # no estimate yet: send back-to-back
        return 1.0 / (self.pacing_gain * self.bw)

    def on_ack(self, newly_acked: int) -> None:
        self._advance(newly_acked)

    def on_partial_ack(self, newly_acked: int) -> None:
        # Delivery keeps feeding the model during recovery; no
        # deflate/inflate bookkeeping — the window is model-driven.
        # Recovery can span several rounds, and every one of them sees
        # hole-filling cumulative jumps, so each stays tainted.
        self._round_tainted = True
        self._advance(newly_acked)

    def on_dup_ack_in_recovery(self) -> None:
        pass  # no window inflation for a rate-based sender

    def enter_recovery(self, flight_size: float) -> None:
        # Loss is a *secondary* signal (BBRv2-style): the model's
        # window survives, but the bandwidth estimate takes a gentle
        # multiplicative discount.  Without it, competing flows whose
        # max filters latched ACK-compressed samples never concede an
        # overshared link — the discount is what lets the aggregate
        # converge to the line rate.  The round is also tainted:
        # delivery across a recovery includes receiver-buffered jump
        # ACKs, which read as rates above the line rate and would
        # ratchet the filter upward.
        if not self._round_tainted:
            # At most one discount per round: a single overshoot event
            # can trigger several recoveries before the round turns.
            self._discount_bw()
        self._round_tainted = True
        self.fast_recoveries += 1
        if self.state == "startup":
            # Loss during startup means the pipe (plus buffer) is full —
            # the growth plateau would conclude the same a few rounds
            # later at the cost of another overshoot window of drops.
            self._to_drain()

    def exit_recovery(self) -> None:
        # The full ACK ending recovery is itself a cumulative jump.
        self._round_tainted = True
        self._set_cwnd()  # no deflation to ssthresh

    def on_timeout(self, flight_size: float) -> None:
        # Conservative restart, but the bandwidth model survives: an
        # RTO says the *feedback loop* broke, not that the path changed.
        self.cwnd = self.MIN_CWND
        if not self._round_tainted:
            self._discount_bw()
        self._round_end_seq = None
        self._round_delivered = 0
        self._round_tainted = True
        self.timeouts += 1

    def on_tahoe_loss(self, flight_size: float) -> None:  # pragma: no cover
        self.on_timeout(flight_size)
        self.timeouts -= 1

    # ------------------------------------------------------------------
    # The model
    # ------------------------------------------------------------------
    def _discount_bw(self) -> None:
        """Scale the bandwidth filter down by ``LOSS_BETA`` on a loss
        event (every sample, so the discount survives the max)."""
        if self.bw <= 0.0:
            return
        scaled = deque((s * self.LOSS_BETA for s in self._bw_samples),
                       maxlen=self.BW_WINDOW)
        self._bw_samples = scaled
        self.bw = max(scaled)

    def _bdp(self) -> float:
        """Estimated bandwidth-delay product in packets (0 = unknown)."""
        if self.bw <= 0.0 or not math.isfinite(self.min_rtt):
            return 0.0
        return self.bw * self.min_rtt

    def _to_drain(self) -> None:
        self.state = "drain"
        self.pacing_gain = self.DRAIN_GAIN
        self._stalled_rounds = 0
        self.bw_probe_transitions += 1

    def _set_cwnd(self) -> None:
        bdp = self._bdp()
        if bdp <= 0.0:
            return
        if self.state == "startup":
            gain = self.STARTUP_GAIN
        elif self.state == "drain":
            # Cap the flight at the BDP so the queue built during
            # startup can actually drain; with CWND_GAIN the sender
            # would hold flight at 2x BDP and never satisfy the
            # drain-exit condition.
            gain = 1.0
        else:
            gain = self.CWND_GAIN
        self.cwnd = max(gain * bdp, self.MIN_CWND)

    def _advance(self, newly_acked: int) -> None:
        sender = self._sender
        if sender is None:
            return  # unbound (direct hook-level unit tests)
        now = sender.sim.now
        if self._round_end_seq is None:
            self._round_end_seq = sender.snd_nxt
            self._round_start_time = now
            self._round_retx = sender.retransmits
            self._round_pace_rate = self.pacing_gain * self.bw
        self._round_delivered += newly_acked
        if self.bw <= 0.0:
            # Bootstrap: grow like slow start until the first bandwidth
            # sample exists, so the first round can fill the pipe.
            self.cwnd += float(newly_acked)
        if sender.snd_una >= self._round_end_seq:
            elapsed = now - self._round_start_time
            if math.isfinite(self.min_rtt):
                # A round is at least one propagation RTT; anything
                # shorter is ACK compression and would overestimate.
                elapsed = max(elapsed, self.min_rtt)
            # Delivery can't outrun the rate the data was *sent* at: a
            # clustered flight draining the FIFO back-to-back
            # compresses the ACK spacing to the line rate, not this
            # flow's share.  The data acked this round left the sender
            # a round earlier, so the floor uses the pace rate recorded
            # at the previous reset — flooring against the current gain
            # would let each 0.75-drain slot clip away what the 1.25
            # probe slot just measured.
            if self._round_pace_rate > 0.0:
                elapsed = max(elapsed,
                              self._round_delivered / self._round_pace_rate)
            # A round containing any retransmission is unmeasurable:
            # hole repairs release receiver-buffered data in cumulative
            # jumps, which read as delivery above the line rate and
            # would ratchet the max filter (go-back-N after an RTO can
            # do this for several rounds past the tainted one).
            clean = (not self._round_tainted
                     and sender.retransmits == self._round_retx)
            if clean and elapsed > 0.0 and self._round_delivered > 0:
                self._bw_samples.append(self._round_delivered / elapsed)
                self.bw = max(self._bw_samples)
            self.rounds += 1
            self._round_end_seq = sender.snd_nxt
            self._round_start_time = now
            self._round_delivered = 0
            self._round_tainted = False
            self._round_retx = sender.retransmits
            # Recorded before _on_round_end advances the gain cycle:
            # this is the rate the flight now in progress was paced at.
            self._round_pace_rate = self.pacing_gain * self.bw
            self._on_round_end()
        self._set_cwnd()

    def _on_round_end(self) -> None:
        if self.state == "startup":
            if self.bw > self._full_bw * 1.25:
                self._full_bw = self.bw
                self._stalled_rounds = 0
            else:
                self._stalled_rounds += 1
                if self._stalled_rounds >= self.FULL_BW_ROUNDS:
                    self._to_drain()
        elif self.state == "drain":
            if self._sender.flight_size <= self._bdp():
                self.state = "probe_bw"
                self._cycle_index = 0
                self.pacing_gain = self.PROBE_GAINS[0]
                self.bw_probe_transitions += 1
        else:  # probe_bw: advance the gain cycle once per round
            self._cycle_index = (self._cycle_index + 1) % len(self.PROBE_GAINS)
            self.pacing_gain = self.PROBE_GAINS[self._cycle_index]
            if self._cycle_index == 0:
                self.bw_probe_transitions += 1  # one full probe cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BbrLikeCC(state={self.state}, cwnd={self.cwnd:.2f}, "
                f"bw={self.bw:.1f}pps, min_rtt={self.min_rtt:.4f})")

