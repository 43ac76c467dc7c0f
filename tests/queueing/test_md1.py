"""Tests for the exact M/D/1 distribution.

:class:`TestAgainstTheSimulator` uses the exact distribution as an
independent oracle for the packet simulator: Poisson packets of one
size through a bottleneck that never drops is an M/D/1 queue.
"""

import math
import random
import statistics

import pytest

from repro.errors import ModelError
from repro.net import build_dumbbell
from repro.queueing import md1_overflow_exact, md1_queue_distribution
from repro.sim import Probe, Simulator
from repro.traffic.udp import UdpSink, UdpSource


class TestExactDistribution:
    def test_pi0_is_one_minus_rho(self):
        pi = md1_queue_distribution(0.6, 50)
        assert pi[0] == pytest.approx(0.4)

    def test_sums_to_one(self):
        pi = md1_queue_distribution(0.5, 200)
        assert sum(pi) == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative(self):
        pi = md1_queue_distribution(0.9, 300)
        assert all(p >= 0 for p in pi)

    def test_mean_matches_pollaczek_khinchine(self):
        """E[Q] = rho + rho^2 / (2 (1 - rho)) for M/D/1."""
        rho = 0.7
        pi = md1_queue_distribution(rho, 2000)
        mean = sum(n * p for n, p in enumerate(pi))
        expected = rho + rho ** 2 / (2 * (1 - rho))
        assert mean == pytest.approx(expected, rel=1e-3)

    def test_heavier_load_longer_queue(self):
        light = md1_queue_distribution(0.3, 100)
        heavy = md1_queue_distribution(0.9, 100)
        mean_light = sum(n * p for n, p in enumerate(light))
        mean_heavy = sum(n * p for n, p in enumerate(heavy))
        assert mean_heavy > mean_light

    def test_load_validated(self):
        with pytest.raises(ModelError):
            md1_queue_distribution(1.0, 10)
        with pytest.raises(ModelError):
            md1_queue_distribution(0.0, 10)

    def test_max_length_validated(self):
        with pytest.raises(ModelError):
            md1_queue_distribution(0.5, -1)


class TestOverflow:
    def test_zero_buffer(self):
        assert md1_overflow_exact(0.5, 0) == 1.0

    def test_decreasing_in_buffer(self):
        values = [md1_overflow_exact(0.8, b) for b in (1, 5, 20, 50)]
        assert values == sorted(values, reverse=True)

#: Bottleneck of 10 Mb/s and 1000-byte packets: a 0.8 ms service time.
RATE_BPS = 10e6
SERVICE_S = 1000 * 8 / RATE_BPS
#: Levels b of P(N >= b), N = packets in system (queue + on the wire).
LEVELS = (1, 2, 3, 4)
#: Batches for the batch-means standard error; each spans ~1000
#: service times, far longer than the queue's relaxation time at
#: rho = 0.8 (about 1 / (1 - sqrt(rho))^2 ~ 90 service times).
BATCHES = 20
#: Standard errors allowed: beyond the 99.9 % point of Student's t with
#: BATCHES - 1 degrees of freedom (3.88).
Z = 4.0


def _in_system_fractions(rho, poisson, *, senders=2, seed=7,
                         warmup=0.5, duration=16.0):
    """Per-batch fractions of time with >= b packets in the system.

    ``senders`` UDP sources of 1000-byte packets share the load; their
    access links are 1000x the bottleneck, so the bottleneck sees their
    spacing unchanged.  The bottleneck buffer holds 10,000 packets and
    never drops.  The number in system is sampled every 0.29 ms (a
    period unrelated to the 0.8 ms service time) from ``warmup`` on.
    """
    sim = Simulator()
    net = build_dumbbell(sim, n_pairs=senders, bottleneck_rate=RATE_BPS,
                         buffer_packets=10_000, rtts=["10ms"],
                         access_rate=RATE_BPS * 1000)
    for i, (src, dst) in enumerate(zip(net.senders, net.receivers)):
        UdpSink(sim, dst, port=9)
        source = UdpSource(sim, src, dst_address=dst.address, dport=9,
                           rate=rho * RATE_BPS / senders, payload=972,
                           poisson=poisson, rng=random.Random(seed + i))
        sim.call_at(i * SERVICE_S / senders, source.start)
    queue, link = net.bottleneck.queue, net.bottleneck.link
    probe = Probe(sim, lambda: len(queue) + link.busy, period=0.29e-3)
    probe.start(delay=warmup)
    sim.run(until=warmup + duration)
    assert queue.drops == 0
    samples = probe.series.values
    size = len(samples) // BATCHES
    return {b: [sum(v >= b for v in samples[k * size:(k + 1) * size]) / size
                for k in range(BATCHES)]
            for b in LEVELS}


def _misfits(rho, fractions):
    """Levels where the measured P(N >= b) misses M/D/1 by > Z errors."""
    out = []
    for b, batch in fractions.items():
        mean = statistics.fmean(batch)
        stderr = statistics.stdev(batch) / math.sqrt(len(batch))
        exact = md1_overflow_exact(rho, b)
        if abs(mean - exact) > Z * stderr:
            out.append((b, round(mean, 4), round(exact, 4), round(stderr, 4)))
    return out


class TestAgainstTheSimulator:
    """Section 4's smoothed-access regime: Poisson arrivals, M/D/1 tail."""

    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_poisson_arrivals_match_md1(self, rho):
        assert _misfits(rho, _in_system_fractions(rho, poisson=True)) == []

    @pytest.mark.parametrize("rho", [0.5, 0.8])
    def test_cbr_arrivals_fail_the_same_check(self, rho):
        """Negative control: constant spacing never builds the M/D/1 tail."""
        misfits = _misfits(rho, _in_system_fractions(rho, poisson=False))
        assert {b for b, *_ in misfits} >= {2, 3}
