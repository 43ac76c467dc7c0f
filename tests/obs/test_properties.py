"""Property-based randomized-scenario tests, judged by obs counters.

A seeded generator draws small random dumbbell scenarios and flow mixes
and asserts counter-derived invariants of the simulation itself:

* **Conservation** — for every queue, packets that arrived either
  departed, were dropped, or are still queued (and the byte ledger
  agrees).
* **Sized buffers don't drop** — when every flow is window-limited and
  the bottleneck buffer is at least the pipe (and large enough to park
  every window), ``queue.drops`` stays exactly zero.
* **Window discipline** — no sender ever has more packets outstanding
  than its receiver window allows.

``derandomize=True`` keeps the draw sequence fixed, so the suite is
deterministic across consecutive runs; the ``--slow`` variants rerun
the same properties with several times the examples.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.experiments import common
from repro.experiments.common import (
    run_long_flow_experiment,
    run_short_flow_experiment,
)
from repro.net import build_dumbbell
from repro.sim import RngStreams
from repro.tcp import TcpFlow
from repro.traffic.sizes import FixedSize

FAST = dict(max_examples=20, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])
SLOW = dict(FAST, max_examples=100)

long_scenarios = st.fixed_dictionaries({
    "n_flows": st.integers(1, 6),
    "pipe_packets": st.sampled_from([16.0, 24.0, 40.0]),
    "buffer_packets": st.integers(2, 32),
    "seed": st.integers(0, 9999),
    "cc": st.sampled_from(["reno", "newreno", "tahoe"]),
})

short_scenarios = st.fixed_dictionaries({
    "load": st.floats(0.2, 0.85),
    "buffer_packets": st.integers(5, 40),
    "flow_packets": st.integers(2, 16),
    "seed": st.integers(0, 9999),
})

windowed = st.fixed_dictionaries({
    "n_flows": st.integers(1, 5),
    "pipe_packets": st.sampled_from([16.0, 24.0, 40.0]),
    "max_window": st.integers(2, 6),
    "seed": st.integers(0, 9999),
})


def observed_long(**params):
    with obs.observed() as recorder:
        result = run_long_flow_experiment(
            bottleneck_rate="10Mbps", warmup=0.5, duration=1.5, **params)
        return result, recorder


def observed_windowed(n_flows, pipe_packets, max_window, seed,
                      buffer_packets):
    """Long flows whose receiver window is ``max_window`` packets, over
    the dumbbell :func:`observed_long` builds; the obs snapshot at the
    end (2 s, starts spread over the first 0.25 s)."""
    streams = RngStreams(seed)
    with obs.observed():
        sim = common._make_simulator()
        rtt = common.rtt_for_pipe(pipe_packets, "10Mbps")
        rtt_rng, start_rng = streams.stream("rtt"), streams.stream("starts")
        net = build_dumbbell(
            sim, n_pairs=n_flows, bottleneck_rate="10Mbps",
            buffer_packets=buffer_packets,
            rtts=[rtt_rng.uniform(0.5 * rtt, 1.5 * rtt)
                  for _ in range(n_flows)],
            bottleneck_delay=rtt / 20.0, receiver_delay=rtt / 100.0)
        for src, dst in net.flow_pairs():
            TcpFlow(sim, src, dst, mss=common.MSS, max_window=max_window,
                    start_time=start_rng.uniform(0.0, 0.25))
        common.run_world(sim, net, 2.0)
        return obs.snapshot(sim.now)


def queue_components(snap):
    return {name: fields for name, fields in snap["components"].items()
            if name.startswith("queue.")}


def check_conservation(snap):
    queues = queue_components(snap)
    assert queues, "no queues registered"
    for name, q in queues.items():
        assert q["arrivals"] == q["departures"] + q["drops"] + q["depth"], name
        assert q["bytes_in"] >= q["bytes_out"] + q["bytes_dropped"], name


class TestConservation:
    @given(params=long_scenarios)
    @settings(**FAST)
    def test_long_flows(self, params):
        result, recorder = observed_long(**params)
        snap = result.metrics
        check_conservation(snap)
        # The drop event stream agrees with the drop counters exactly.
        drops = sum(1 for e in recorder.events() if e["kind"] == "drop")
        assert drops == (snap["counters"]["queue.drops"]
                         + snap["counters"].get("link.fault_drops", 0))

    @given(params=short_scenarios)
    @settings(max_examples=10, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_short_flows(self, params):
        params = dict(params)
        sizes = FixedSize(params.pop("flow_packets"))
        with obs.observed():
            result = run_short_flow_experiment(
                sizes=sizes, bottleneck_rate="10Mbps", rtt="40ms",
                warmup=0.5, duration=2.0, **params)
        check_conservation(result.metrics)

    @pytest.mark.slow
    @given(params=long_scenarios)
    @settings(**SLOW)
    def test_long_flows_slow(self, params):
        result, _ = observed_long(**params)
        check_conservation(result.metrics)


class TestSizedBuffersDontDrop:
    @staticmethod
    def run(params):
        # Window-limited flows: the buffer is at least the pipe AND big
        # enough to park every flow's full window, so nothing can
        # overflow the bottleneck — the idealized form of the paper's
        # rule-of-thumb claim, checked through the counters.
        buffer_packets = max(int(math.ceil(params["pipe_packets"])),
                             params["n_flows"] * params["max_window"])
        counters = observed_windowed(buffer_packets=buffer_packets,
                                     **params)["counters"]
        assert counters["queue.drops"] == 0
        assert counters["tcp.retransmits"] == 0

    @given(params=windowed)
    @settings(**FAST)
    def test_no_drops(self, params):
        self.run(params)

    @pytest.mark.slow
    @given(params=windowed)
    @settings(**SLOW)
    def test_no_drops_slow(self, params):
        self.run(params)


class TestWindowDiscipline:
    @given(params=windowed)
    @settings(**FAST)
    def test_flight_never_exceeds_receiver_window(self, params):
        params = dict(params)
        max_window = params["max_window"]
        snap = observed_windowed(buffer_packets=5, **params)
        senders = {name: fields
                   for name, fields in snap["components"].items()
                   if name.startswith("tcp.")}
        assert len(senders) == params["n_flows"]
        for name, s in senders.items():
            assert 0 <= s["flight"] <= max_window, name
            # cwnd can exceed the cap (it is the *congestion* window);
            # what must hold is that the sender never uses more than
            # min(cwnd, receiver window).
            assert s["flight"] <= max(int(s["cwnd"]), max_window), name
