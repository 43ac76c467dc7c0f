"""Burst-mode departure identity: bursting on/off, bit for bit.

The burst drain (``Simulator(burst=True)``) changes *when* the packet
chain's work is done — virtual per-link streams drained in a tight loop
— but must never change *what* the simulation computes.  A seeded
(``derandomize=True``) hypothesis suite drives a tiny dumbbell through
op scripts covering exactly the hazards the drain has to re-split on:
timers expiring mid-burst, a delivery callback scheduling inside the
burst window, a fault flap landing inside a burst window,
RED drops inside a burst, a ``run(until=...)`` horizon landing during
the drain, and zero-length / single-packet bursts — and asserts the
full observable history is identical across bursting on/off on both
scheduler backends.

The op spacing (3 ms) is deliberately shorter than the time a full
send-burst occupies the 10 Mbps bottleneck (0.8 ms per packet), so
later ops routinely land while a burst window is open.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SimulationStalledError
from repro.faults import FaultSchedule, LinkFlap, targets_for_dumbbell
from repro.net.packet import Packet
from repro.net.queues import REDQueue
from repro.net.topology import Network, build_dumbbell
from repro.sim import Simulator, Timer
from repro.traffic.flows import LongLivedWorkload

FAST = dict(max_examples=40, deadline=None, derandomize=True,
            suppress_health_check=[HealthCheck.too_slow])

#: scheduler backend x bursting; the first entry is the reference.
VARIANTS = (("heap", False), ("heap", True),
            ("calendar", False), ("calendar", True))

#: Timer delays straddling the bottleneck's 0.8 ms serialization time:
#: zero-delay, sub-serialization (mid-burst), one-packet, several.
TIMER_DELAYS = (0.0, 0.0003, 0.0011, 0.004, 0.02)

#: Where a "split" op ends one ``run(until=...)`` call, past its own
#: tick: on the tick, mid-serialization, between two departures, and
#: just before the next tick — each inside a burst window when one is
#: open.
SPLITS = (0.0, 0.0004, 0.0011, 0.0029)

_ops = st.lists(
    st.one_of(
        # 0 = zero-length burst (the link never goes busy), 1 = single-
        # packet burst, 8 = overflows the 6-packet bottleneck queue.
        st.tuples(st.just("send"), st.integers(0, 8)),
        st.tuples(st.just("timer"), st.integers(0, 2),
                  st.sampled_from(TIMER_DELAYS)),
        st.tuples(st.just("cancel"), st.integers(0, 2)),
        st.tuples(st.just("flap"), st.sampled_from((0.001, 0.005))),
        st.tuples(st.just("split"), st.sampled_from(SPLITS)),
    ),
    min_size=1, max_size=30,
)


class _Sink:
    """Receiving agent: logs every delivery in arrival order."""

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def deliver(self, packet):
        # packet.seq, not packet.uid: uids come from a process-global
        # allocator, so they differ between two runs in one process.
        self.log.append(("rx", packet.seq, packet.payload,
                         round(self.sim.now, 9)))


class _EchoSink(_Sink):
    """Schedules a callback 0.1 ms after every delivery, as an ACK would."""

    def deliver(self, packet):
        super().deliver(packet)
        self.sim.schedule(0.0001, lambda seq=packet.seq: self.log.append(
            ("echo", seq, round(self.sim.now, 9))))


def _build(scheduler, burst, red, delay="2ms"):
    opts = {}
    if scheduler == "calendar":
        # Tiny buckets relative to the 0.8 ms serialization time, so
        # bursts routinely span bucket boundaries and cursor advances.
        opts.update(scheduler="calendar", bucket_width=0.0005,
                    wheel_buckets=64)
    sim = Simulator(burst=burst, **opts)
    net = Network(sim)
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    if red:
        bottleneck_queue = REDQueue(
            sim, capacity_packets=6, min_thresh=1, max_thresh=4,
            rng=random.Random(7))
    else:
        bottleneck_queue = 6
    net.connect(a, r, rate="100Mbps", delay="0.1ms")
    net.connect(r, b, rate="10Mbps", delay=delay,
                queue_ab=bottleneck_queue)
    net.compute_routes()
    return sim, net, a, r, b


def _execute(ops, scheduler, burst, red=False, max_events=None, sink=_Sink,
             split=True):
    """Run one op script; return the full observable history.

    Each "split" op ends one ``run(until=...)`` call at its horizon;
    the clock, event count and bottleneck state there join the history.
    ``split=False`` runs the same script in one ``run()`` call.
    """
    sim, net, a, r, b = _build(scheduler, burst, red)
    log = []
    sink = sink(sim, log)
    b.bind(5, sink)
    bottleneck = r.interfaces[b.node_id]
    uids = iter(range(1, 10_000))

    def send(count):
        for _ in range(count):
            a.inject(Packet.acquire(src=a.address, dst=b.address,
                                    payload=1000, dport=5,
                                    seq=next(uids)))

    timers = [
        Timer(sim, lambda i=i: log.append(("timer", i, round(sim.now, 9))))
        for i in range(3)
    ]

    def apply(op):
        kind = op[0]
        if kind == "send":
            send(op[1])
        elif kind == "timer":
            timers[op[1]].arm(op[2])
        elif kind == "cancel":
            timers[op[1]].cancel()
        elif kind == "flap":
            bottleneck.link.down()
            sim.schedule(op[1], bottleneck.link.up)

    for index, op in enumerate(ops):
        sim.call_at(index * 0.003, apply, op)
    queue = bottleneck.queue
    link = bottleneck.link
    horizons = sorted(index * 0.003 + op[1]
                      for index, op in enumerate(ops)
                      if split and op[0] == "split")
    budget_hits = 0
    for until in horizons + [None]:
        while True:
            try:
                sim.run(until=until, max_events=max_events)
                break
            except SimulationStalledError:
                budget_hits += 1
                max_events = None  # drain the remainder unbudgeted
        if until is not None:
            log.append(("split", round(sim.now, 9), sim.events_processed,
                        sim.pending(), len(queue), queue.departures,
                        link.packets_delivered))
    return (log, sim.events_processed, round(sim.now, 9), budget_hits,
            queue.arrivals, queue.departures, queue.drops, queue.bytes_out,
            link.packets_delivered, link.bytes_delivered,
            link.packets_dropped, round(link.busy_time, 9),
            b.packets_received, a.packets_received)


def _wire_fault(scheduler, burst):
    """Take the 20 ms bottleneck wire down while it carries a whole
    send, bring it up, and transmit on it at once; returns the
    observable history."""
    sim, net, a, r, b = _build(scheduler, burst, red=False, delay="20ms")
    log = []
    b.bind(5, _Sink(sim, log))
    link = r.interfaces[b.node_id].link

    def packet(seq):
        return Packet.acquire(src=a.address, dst=b.address, payload=1000,
                              dport=5, seq=seq)

    def send(first, count):
        for seq in range(first, first + count):
            a.inject(packet(seq))

    def down():
        busy, on_wire = link.busy, link.in_flight
        link.down()
        log.append(("down", round(sim.now, 9), busy, on_wire,
                    link.in_flight, link.packets_dropped))

    def up_then_transmit():
        link.up()
        link.transmit(packet(100))

    sim.call_at(0.0, send, 1, 8)
    sim.call_at(0.007, down)
    sim.call_at(0.008, up_then_transmit)
    sim.call_at(0.0085, send, 101, 3)
    sim.run()
    return (log, sim.events_processed, round(sim.now, 9),
            link.packets_delivered, link.bytes_delivered,
            link.packets_dropped, link.bytes_dropped, link.in_flight,
            round(link.busy_time, 9), b.packets_received)


class TestBurstIdentity:
    @given(ops=_ops)
    @settings(**FAST)
    def test_all_variants_agree(self, ops):
        reference = _execute(ops, *VARIANTS[0])
        for scheduler, burst in VARIANTS[1:]:
            assert _execute(ops, scheduler, burst) == reference, \
                (scheduler, burst)

    @given(ops=_ops)
    @settings(**FAST)
    def test_red_drops_inside_burst_agree(self, ops):
        reference = _execute(ops, *VARIANTS[0], red=True)
        for scheduler, burst in VARIANTS[1:]:
            assert _execute(ops, scheduler, burst, red=True) == reference, \
                (scheduler, burst)

    @given(ops=_ops, budget=st.integers(5, 60))
    @settings(**FAST)
    def test_event_budget_lands_identically(self, ops, budget):
        """The watchdog budget must exhaust at the same event count and
        virtual time whether the events were popped or burst-drained."""
        reference = _execute(ops, *VARIANTS[0], max_events=budget)
        for scheduler, burst in VARIANTS[1:]:
            result = _execute(ops, scheduler, burst, max_events=budget)
            assert result == reference, (scheduler, burst)

    @given(ops=_ops)
    @settings(**FAST)
    def test_split_runs_match_one_run(self, ops):
        """Horizons that cut open burst windows leave every delivery,
        timer and counter as one uninterrupted ``run()`` does.  Only the
        final clock may differ: a horizon past the last event moves it
        there."""
        def unsplit(result):
            log = [entry for entry in result[0] if entry[0] != "split"]
            return (log, result[1]) + result[3:]

        reference = unsplit(_execute(ops, *VARIANTS[0], split=False))
        for scheduler, burst in VARIANTS:
            assert unsplit(_execute(ops, scheduler, burst)) == reference, \
                (scheduler, burst)


class TestBurstEdgeCases:
    def _histories(self, ops, **kwargs):
        reference = _execute(ops, *VARIANTS[0], **kwargs)
        for scheduler, burst in VARIANTS[1:]:
            assert _execute(ops, scheduler, burst, **kwargs) == reference, \
                (scheduler, burst)
        return reference

    def test_zero_length_burst(self):
        self._histories([("send", 0), ("split", 0.0)])

    def test_single_packet_burst(self):
        history = self._histories([("send", 1)])
        assert any(entry[0] == "rx" for entry in history[0])

    def test_timer_expires_mid_burst(self):
        # 8 packets occupy the bottleneck for 6.4 ms; the 0.3 ms timer
        # fires between the first and second departures.
        history = self._histories([("send", 8), ("timer", 0, 0.0003)])
        kinds = [entry[0] for entry in history[0]]
        assert "timer" in kinds and "rx" in kinds

    def test_flap_lands_inside_burst_window(self):
        history = self._histories([("send", 8), ("flap", 0.005),
                                   ("send", 4)])
        # The flap killed in-flight packets: fewer deliveries than sends.
        delivered = sum(1 for entry in history[0] if entry[0] == "rx")
        assert 0 < delivered < 12

    def test_run_horizon_lands_during_drain(self):
        # 8 packets keep the bottleneck busy for 6.4 ms: the horizon
        # 0.4 ms past the second tick cuts the drain mid-serialization.
        history = self._histories([("send", 8), ("split", 0.0004),
                                   ("send", 3)])
        split, = (entry for entry in history[0] if entry[0] == "split")
        assert split[1] == 0.0034 and split[4] > 0  # packets still queued

    def test_delivery_callback_schedules_inside_burst(self):
        # Each echo lands 0.1 ms after its delivery, before the next
        # departure (0.8 ms): a drain that kept a stale bound after a
        # delivery would run that departure first.
        history = self._histories([("send", 6)], sink=_EchoSink)
        kinds = [entry[0] for entry in history[0]]
        assert kinds == ["rx", "echo"] * 6

    def test_down_with_a_full_wire_then_transmit_after_up(self):
        # By 7 ms the queue has drained (0.83 ms a packet) and the
        # 20 ms wire carries every packet it let through: down() loses
        # them all from the propagating FIFO, and a transmit right
        # after up() must start a fresh one.
        reference = _wire_fault(*VARIANTS[0])
        for scheduler, burst in VARIANTS[1:]:
            assert _wire_fault(scheduler, burst) == reference, \
                (scheduler, burst)
        log = reference[0]
        (_, _, busy, on_wire, left, dropped), = (
            entry for entry in log if entry[0] == "down")
        assert not busy and on_wire >= 3
        assert left == 0 and dropped == on_wire
        received = [entry[1] for entry in log if entry[0] == "rx"]
        assert received == [100, 101, 102, 103]

    def test_burst_census_counts_coalesced_steps(self):
        ops = [("send", 8), ("send", 8)]
        sim, net, a, r, b = _build("heap", True, red=False)
        b.bind(5, _Sink(sim, []))
        for index, count in enumerate(op[1] for op in ops):
            sim.call_at(index * 0.003, lambda c=count: [
                a.inject(Packet.acquire(src=a.address, dst=b.address,
                                        payload=1000, dport=5, seq=i))
                for i in range(c)])
        sim.run()
        assert sim.burst_steps > 0
        assert sim.events_popped + sim.burst_steps == sim.events_processed
        assert sim.events_popped < sim.events_processed


class TestChunkedRunSharesTheDrain:
    """A horizon ends the drain wherever it lands, and the next
    ``run()`` call resumes it: running a real TCP dumbbell to ``T`` in
    1.3 ms chunks — horizons mid-serialization and inside open burst
    windows — must leave exactly the state one ``run(until=T)``
    leaves."""

    T = 3.0
    CHUNK = 0.0013

    def _dumbbell(self, scheduler, red):
        opts = {}
        if scheduler == "calendar":
            opts.update(scheduler="calendar", bucket_width=0.0005,
                        wheel_buckets=64)
        sim = Simulator(burst=True, **opts)
        queue = None
        if red:
            def queue():
                return REDQueue(sim, capacity_packets=12, min_thresh=3,
                                max_thresh=9, rng=random.Random(7))
        net = build_dumbbell(sim, n_pairs=4, bottleneck_rate="10Mbps",
                             buffer_packets=None if red else 12,
                             bottleneck_queue=queue,
                             rtts=[0.03, 0.04, 0.05, 0.06])
        workload = LongLivedWorkload(net, start_spread=0.5,
                                     rng=random.Random(3))
        # The flap kills whatever the bottleneck has in flight, so the
        # chunked run has stale virtual heads to resume over.
        FaultSchedule([LinkFlap(at=2.0, duration=0.05)]).install(
            sim, targets_for_dumbbell(net))
        return sim, net, workload

    def _state(self, sim, net, workload):
        link, queue = net.bottleneck_link, net.bottleneck_queue
        return (sim.now, sim.events_processed, sim.burst_steps,
                link.packets_delivered, link.bytes_delivered,
                link.packets_dropped, link.busy_time,
                queue.arrivals, queue.departures, queue.drops,
                queue.bytes_out,
                [(flow.cc.timeouts, flow.sender.fast_retransmits)
                 for flow in workload.flows])

    @pytest.mark.parametrize("red", [False, True], ids=["droptail", "red"])
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_chunked_run_to_T_matches_run_until_T(self, scheduler, red):
        sim, net, workload = self._dumbbell(scheduler, red)
        sim.run(until=self.T)
        ran = self._state(sim, net, workload)

        sim, net, workload = self._dumbbell(scheduler, red)
        chunks = 0
        while sim.now < self.T:
            sim.run(until=min(self.T, (chunks + 1) * self.CHUNK))
            chunks += 1
        assert self._state(sim, net, workload) == ran

        assert sim.burst_steps > 0
        assert sim.events_popped + sim.burst_steps == sim.events_processed
        assert net.bottleneck_link.packets_dropped > 0  # the flap bit
        assert net.bottleneck_queue.drops > 0
