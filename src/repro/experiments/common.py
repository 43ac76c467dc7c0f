"""Shared experiment scaffolding.

Two workhorse runners cover most of the paper's evaluation:

* :func:`run_long_flow_experiment` — ``n`` long-lived flows over a
  dumbbell, returning utilization, loss, timeout counts, queue
  statistics, and (optionally) aggregate-window statistics.
* :func:`run_short_flow_experiment` — Poisson short-flow arrivals at a
  target load, returning AFCT and drop statistics.

These and every other packet-level artefact share one lifecycle:
:func:`_make_simulator`, build, attach workload and monitors,
:func:`run_world`, read the result.

Both runners accept *dimensionless-first* parameters: the bottleneck pipe in
packets (``pipe_packets``) plus a line rate, from which the mean RTT
follows (``rtt = pipe * packet_bits / rate``).  This keeps scaled-down
runs in the same dynamical regime as the paper's OC3 experiments: what
matters to the theory is the pipe size in packets, the per-flow share
``pipe/n``, and the buffer in units of ``pipe/sqrt(n)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.invariants import InvariantMonitor, verify_network
from repro.metrics import (
    FctCollector,
    FlowProgressMeter,
    QueueMonitor,
    UtilizationMonitor,
    WindowedUtilizationProbe,
    WindowTracker,
)
from repro.metrics.windows import GaussianFit
from repro.net import REDQueue, build_dumbbell
from repro.net.packet import TCP_HEADER_BYTES, pooled_packets
from repro.net.queues import DropTailQueue
from repro.obs import runtime as _obs
from repro.sim import RngStreams, Simulator
from repro.traffic import LongLivedWorkload, ShortFlowWorkload
from repro.traffic.sizes import FlowSizeDistribution
from repro.units import Quantity, parse_bandwidth

if TYPE_CHECKING:
    from repro.faults import FaultSchedule

__all__ = [
    "LongFlowResult",
    "ShortFlowResult",
    "run_long_flow_experiment",
    "run_short_flow_experiment",
    "check_window",
    "rtt_for_pipe",
    "run_world",
    "sqrt_rule",
    "sqrt_rule_packets",
]

#: Wire size of a data segment in the experiments (mss 960 + 40 header).
PACKET_BYTES = 1000
MSS = PACKET_BYTES - TCP_HEADER_BYTES

#: Advertised window cap of a short flow, in packets: the OS-typical
#: 12–43 that keeps transfers in the paper's slow-start regime.
MAX_WINDOW_SHORT = 43

#: Calendar-queue auto-sizing horizon: the wheel should span the
#: longest routinely pending timer.  Initial RTO is 1s (repro.tcp.rto),
#: doubled a couple of times under backoff before a run is clearly
#: unhealthy anyway — 3s keeps those inside the wheel window.
_TIMER_HORIZON = 3.0


def rtt_for_pipe(pipe_packets: float, rate: Quantity) -> float:
    """Mean two-way propagation delay giving the requested pipe.

    ``pipe = rate * rtt / (8 * PACKET_BYTES)`` inverted for ``rtt``.
    """
    if not (math.isfinite(pipe_packets) and pipe_packets > 0):
        raise ConfigurationError(
            f"pipe must be finite and > 0, got {pipe_packets}")
    rate_bps = parse_bandwidth(rate)
    if rate_bps <= 0:
        raise ConfigurationError("link rate must be positive")
    return pipe_packets * PACKET_BYTES * 8.0 / rate_bps


def check_window(warmup: float, duration: float) -> None:
    """Refuse a measurement window the engine cannot run, by name:
    ``warmup`` must be finite and >= 0, ``duration`` finite and > 0."""
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ConfigurationError(f"warmup must be finite and >= 0, got {warmup}")
    if not (math.isfinite(duration) and duration > 0):
        raise ConfigurationError(f"duration must be finite and > 0, got {duration}")


def sqrt_rule(pipe_packets: float, n_flows: int, factor: float = 1.0) -> float:
    """The paper's long-flow buffer ``factor * pipe / sqrt(n)``, in packets.

    A nan, infinite or non-positive factor, or fewer than one flow, is a
    :class:`ConfigurationError`; the pipe is checked where it is rounded.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise ConfigurationError(
            f"buffer factor must be finite and > 0, got {factor}")
    if n_flows < 1:
        raise ConfigurationError(f"n_flows must be >= 1, got {n_flows}")
    return factor * pipe_packets / math.sqrt(n_flows)


def sqrt_rule_packets(pipe_packets: float, n_flows: int,
                      factor: float = 1.0) -> int:
    """:func:`sqrt_rule` as a whole buffer of at least two packets.

    Every √n-rule buffer of an artefact or a command is sized here.  A
    nan or infinite pipe cannot be rounded, so it is refused first, in
    :func:`rtt_for_pipe`'s words.
    """
    if not (math.isfinite(pipe_packets) and pipe_packets > 0):
        raise ConfigurationError(
            f"pipe must be finite and > 0, got {pipe_packets}")
    return max(2, int(round(sqrt_rule(pipe_packets, n_flows, factor))))


@dataclass
class LongFlowResult:
    """Outcome of a long-lived-flow experiment."""

    n_flows: int
    buffer_packets: int
    pipe_packets: float
    utilization: float
    throughput_bps: float
    loss_rate: float
    timeouts: int
    fast_retransmits: int
    mean_queue: float
    jain_fairness: float = math.nan
    sync_index: float = math.nan
    gaussian_fit: Optional[GaussianFit] = None
    peak_to_trough: float = math.nan
    window_histogram: Optional[Tuple[List[float], List[int]]] = None
    events_processed: int = 0
    fault_log: Optional[List[Tuple[float, str]]] = None
    window_utilizations: Optional[List[Tuple[float, float]]] = None
    #: Observability snapshot (repro.obs), None unless obs was enabled.
    #: Always last and defaulted, so results stay bit-identical (and
    #: old checkpoints rehydratable) with observability off.
    metrics: Optional[dict] = None

    @classmethod
    def from_dict(cls, payload: dict) -> "LongFlowResult":
        """Rehydrate a result round-tripped through a JSON checkpoint."""
        data = dict(payload)
        fit = data.get("gaussian_fit")
        if isinstance(fit, dict):
            data["gaussian_fit"] = GaussianFit(**fit)
        for name in ("fault_log", "window_utilizations"):
            value = data.get(name)
            if value is not None:
                data[name] = [tuple(item) for item in value]
        hist = data.get("window_histogram")
        if hist is not None:
            data["window_histogram"] = (list(hist[0]), list(hist[1]))
        return cls(**data)


@dataclass
class ShortFlowResult:
    """Outcome of a short-flow experiment."""

    load: float
    buffer_packets: Optional[int]
    afct: float
    n_completed: int
    drop_rate: float
    utilization: float
    p99_fct: float
    flows_with_loss: int
    events_processed: int = 0
    fault_log: Optional[List[Tuple[float, str]]] = None
    #: Observability snapshot (repro.obs), None unless obs was enabled.
    metrics: Optional[dict] = None

    @classmethod
    def from_dict(cls, payload: dict) -> "ShortFlowResult":
        """Rehydrate a result round-tripped through a JSON checkpoint."""
        data = dict(payload)
        log = data.get("fault_log")
        if log is not None:
            data["fault_log"] = [tuple(item) for item in log]
        return cls(**data)


def _make_jitter(rng: random.Random, mean: float) -> Callable[[], float]:
    """Exponential per-packet host processing delay with the given mean."""
    return lambda: rng.expovariate(1.0 / mean)


def _make_simulator(optimize: bool = True, engine_opts: Optional[dict] = None,
                    bottleneck_rate: Optional[Quantity] = None) -> Simulator:
    """Build the experiment Simulator and register it with ``repro.obs``.

    ``optimize=False`` selects the unoptimized reference engine (eager
    timer cancellation, no heap compaction, no cut-through or
    back-to-back serialization) used by the equivalence tests;
    ``engine_opts`` overrides individual engine knobs either way.  Burst
    mode (virtual per-link packet-event streams) rides on the fast
    path, so it defaults on exactly when ``fastpath`` is on.

    When ``engine_opts`` selects the calendar scheduler without fixing
    a bucket width, the width is auto-sized so the wheel spans the
    *timer* horizon, not just the serialization cadence: a wheel of
    serialization-time buckets covers microseconds, so every RTO timer
    (~1s scale, plus backoff) lands in the overflow ladder and is
    re-sorted on every rotation — the ladder-spill regression BENCH
    flagged.  The width is the larger of one packet's serialization
    time and ``_TIMER_HORIZON / wheel_buckets``, so pending retransmit
    timers sit inside the wheel window.
    """
    opts = {} if engine_opts is None else dict(engine_opts)
    if not optimize:
        opts.setdefault("lazy_timers", False)
        opts.setdefault("compaction", False)
        opts.setdefault("fastpath", False)
    opts.setdefault("burst", opts.get("fastpath", optimize))
    if (opts.get("scheduler") == "calendar"
            and "bucket_width" not in opts
            and bottleneck_rate is not None):
        ser_time = PACKET_BYTES * 8.0 / parse_bandwidth(bottleneck_rate)
        wheel = opts.get("wheel_buckets", 1024)
        opts["bucket_width"] = max(ser_time, _TIMER_HORIZON / wheel)
    sim = Simulator(**opts)
    _obs.register_sim(sim)  # a no-op while obs is off
    return sim


def run_world(sim: Simulator, net, until: float, *, optimize: bool = True,
              max_events: Optional[int] = None,
              max_wall_seconds: Optional[float] = None,
              on_sim: Optional[Callable[[Simulator], None]] = None) -> None:
    """Run the built ``net`` (a dumbbell or a bare network) to ``until``.

    Invariant audit every second of virtual time, packet pool, watchdog
    budgets, ``on_sim`` while the pool is still in scope (so a profiler
    can snapshot it as the run used it), final verification — and on any exception a flush
    of the obs flight recorder, so the events before the death survive.
    """
    InvariantMonitor(sim, net, t_stop=until)
    try:
        with pooled_packets(enabled=optimize):
            sim.run(until=until, max_events=max_events,
                    max_wall_seconds=max_wall_seconds)
            if on_sim is not None:
                on_sim(sim)
        verify_network(net)
    except Exception:
        _obs.crash_dump()  # a no-op while obs is off
        raise


def run_long_flow_experiment(
    n_flows: int,
    buffer_packets: int,
    pipe_packets: float = 400.0,
    bottleneck_rate: Quantity = "40Mbps",
    warmup: float = 20.0,
    duration: float = 40.0,
    seed: int = 1,
    cc: str = "reno",
    rtt_spread: Tuple[float, float] = (0.5, 1.5),
    delayed_ack: bool = False,
    track_windows: bool = False,
    proc_jitter_mean: float = 0.0,
    red: bool = False,
    start_spread: Optional[float] = None,
    pacing: bool = False,
    sack: bool = False,
    ecn: bool = False,
    faults: Optional[FaultSchedule] = None,
    max_events: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
    utilization_probe_period: Optional[float] = None,
    optimize: bool = True,
    engine_opts: Optional[dict] = None,
    on_sim: Optional[Callable[[Simulator], None]] = None,
) -> LongFlowResult:
    """Run ``n_flows`` long-lived TCP flows through a bottleneck.

    Parameters
    ----------
    n_flows:
        Concurrent long-lived flows (one per dumbbell pair).
    buffer_packets:
        Bottleneck drop-tail buffer in packets.
    pipe_packets:
        Target bandwidth-delay product in packets; the mean RTT is
        derived from this and ``bottleneck_rate``.
    warmup, duration:
        Measurement starts at ``warmup`` and lasts ``duration`` seconds.
    rtt_spread:
        Per-flow RTT is uniform in ``rtt_mean * [lo, hi]`` — the paper's
        25–300 ms spread normalized.
    track_windows:
        Record the aggregate congestion window (needed for the Figure 6
        statistics; costs memory/time).
    proc_jitter_mean:
        Mean exponential per-packet host processing delay (the paper's
        "small variations in processing time"); 0 disables it.
    red:
        Use a RED bottleneck queue instead of drop-tail (ablation).
    start_spread:
        Interval over which flow starts are staggered (default:
        ``warmup / 2``).
    faults:
        Optional :class:`~repro.faults.FaultSchedule` installed against
        the dumbbell before the run; its firing log is returned in
        ``result.fault_log``.
    max_events, max_wall_seconds:
        Watchdog budgets forwarded to :meth:`Simulator.run`; the run
        dies with :class:`~repro.errors.SimulationStalledError` instead
        of hanging a sweep.
    utilization_probe_period:
        When set, record per-window bottleneck busy fractions in
        ``result.window_utilizations`` — the trajectory fault
        experiments use to show utilization recovering after an outage.
    optimize:
        ``True`` (default) runs the optimized engine: lazy timer
        rescheduling, heap compaction, and packet pooling.  ``False``
        runs the unoptimized reference path; results are bit-identical
        either way (test-enforced).
    engine_opts:
        Extra :class:`~repro.sim.Simulator` keyword overrides (e.g.
        ``{"compaction": False}``) for targeted ablations.
    on_sim:
        Callback invoked with the finished simulator before the result
        is built — the profiling harness uses it to harvest engine
        statistics (``peak_heap_size``, ``compactions``) without
        growing the result dataclass.

    Returns
    -------
    LongFlowResult
    """
    if n_flows < 1:
        raise ConfigurationError("need at least one flow")
    check_window(warmup, duration)
    streams = RngStreams(seed)
    sim = _make_simulator(optimize, engine_opts, bottleneck_rate)
    rtt_mean = rtt_for_pipe(pipe_packets, bottleneck_rate)
    rtt_rng = streams.stream("rtt")
    lo, hi = rtt_spread
    rtts = [rtt_rng.uniform(lo * rtt_mean, hi * rtt_mean) for _ in range(n_flows)]

    jitter = None
    if proc_jitter_mean > 0:
        jitter = _make_jitter(streams.stream("jitter"), proc_jitter_mean)

    if ecn and not red:
        raise ConfigurationError("ecn=True requires red=True (the AQM marks)")
    queue_spec = None
    if red:
        # Configure RED comparably to the drop-tail buffer under study:
        # early drops ramp over [B/4, B] with 2B of physical headroom
        # (comparing at equal *physical* capacity would handicap RED,
        # which holds its average near max_thresh).  Two classic tuning
        # caveats at small-buffer scale: max_p must match the loss rate
        # AIMD needs (~0.76/W^2, a couple of percent), and the EWMA
        # weight must track the short queue's timescale — the textbook
        # (0.1, 0.002) over-drops and lags, costing >10 points of
        # utilization here.
        pkt_time = PACKET_BYTES * 8.0 / parse_bandwidth(bottleneck_rate)

        def queue_factory():
            return REDQueue(sim, capacity_packets=2 * buffer_packets,
                            min_thresh=buffer_packets / 4.0,
                            max_thresh=float(buffer_packets),
                            max_p=0.02, weight=0.02,
                            mean_pkt_time=pkt_time,
                            ecn=ecn,
                            rng=streams.stream("red"))

        queue_spec = queue_factory

    net = build_dumbbell(
        sim,
        n_pairs=n_flows,
        bottleneck_rate=bottleneck_rate,
        buffer_packets=None if red else buffer_packets,
        bottleneck_queue=queue_spec,
        rtts=rtts,
        bottleneck_delay=rtt_mean / 20.0,
        receiver_delay=rtt_mean / 100.0,
        proc_jitter=jitter,
    )
    workload = LongLivedWorkload(
        net,
        cc=cc,
        start_spread=warmup / 2.0 if start_spread is None else start_spread,
        rng=streams.stream("starts"),
        mss=MSS,
        delayed_ack=delayed_ack,
        pacing=pacing,
        sack=sack,
        ecn=ecn,
    )
    t_end = warmup + duration
    util_mon = UtilizationMonitor(sim, net.bottleneck_link, t_start=warmup, t_end=t_end)
    queue_mon = QueueMonitor(sim, net.bottleneck_queue, t_start=warmup, t_end=t_end,
                             sample_period=max(duration / 2000.0, 0.005))
    tracker = None
    if track_windows:
        tracker = WindowTracker(sim, workload.senders, t_start=warmup)
    progress = FlowProgressMeter(sim, workload.senders, t_start=warmup,
                                 t_end=t_end)
    probe = None
    if utilization_probe_period is not None:
        probe = WindowedUtilizationProbe(sim, net.bottleneck_link,
                                         period=utilization_probe_period,
                                         t_end=t_end)
    if faults is not None:
        from repro.faults import targets_for_dumbbell  # a fault-free run never needs it

        faults.install(sim, targets_for_dumbbell(net),
                       rng=streams.stream("faults"))
    run_world(sim, net, t_end, optimize=optimize, max_events=max_events,
              max_wall_seconds=max_wall_seconds, on_sim=on_sim)

    timeouts = sum(flow.cc.timeouts for flow in workload.flows)
    fast_rtx = sum(flow.sender.fast_retransmits for flow in workload.flows)
    return LongFlowResult(
        n_flows=n_flows,
        buffer_packets=buffer_packets,
        pipe_packets=pipe_packets,
        utilization=util_mon.utilization,
        throughput_bps=util_mon.throughput_bps,
        loss_rate=queue_mon.loss_rate,
        timeouts=timeouts,
        fast_retransmits=fast_rtx,
        mean_queue=queue_mon.mean_occupancy(),
        jain_fairness=progress.fairness(),
        sync_index=tracker.synchronization_index() if tracker else math.nan,
        gaussian_fit=tracker.fit_gaussian() if tracker else None,
        peak_to_trough=tracker.peak_to_trough() if tracker else math.nan,
        window_histogram=tracker.histogram() if tracker else None,
        events_processed=sim.events_processed,
        fault_log=list(faults.log) if faults is not None else None,
        window_utilizations=list(probe.windows) if probe is not None else None,
        metrics=_obs.snapshot(sim.now) if _obs.enabled else None,
    )


def run_short_flow_experiment(
    load: float,
    buffer_packets: Optional[int],
    sizes: FlowSizeDistribution,
    bottleneck_rate: Quantity = "40Mbps",
    rtt: Quantity = "80ms",
    warmup: float = 10.0,
    duration: float = 40.0,
    seed: int = 1,
    n_pairs: int = 20,
    access_multiplier: float = 10.0,
    cc: str = "reno",
    max_events: Optional[int] = None,
    max_wall_seconds: Optional[float] = None,
    optimize: bool = True,
    engine_opts: Optional[dict] = None,
    on_sim: Optional[Callable[[Simulator], None]] = None,
) -> ShortFlowResult:
    """Poisson short-flow arrivals at a target load.

    Parameters
    ----------
    load:
        Offered load in (0, 1) — the x-axis quantity of Figure 8.
    buffer_packets:
        Bottleneck buffer; ``None`` means an unbounded queue (the
        "infinite buffer" AFCT baseline).
    sizes:
        Flow-length distribution in packets.
    n_pairs:
        Host pairs to cycle arrivals over.
    access_multiplier:
        Access links run this many times faster than the bottleneck
        (bigger = burstier arrivals; the paper's worst case is infinite).
    optimize, engine_opts, on_sim:
        Engine selection and instrumentation hooks, as in
        :func:`run_long_flow_experiment`.

    Returns
    -------
    ShortFlowResult with AFCT measured over flows that *start* inside
    the measurement window and complete before the run ends (plus a
    drain period of 25% of the duration to let stragglers finish).
    """
    if not 0.0 < load < 1.0:
        raise ConfigurationError(f"load must be in (0, 1), got {load}")
    check_window(warmup, duration)
    streams = RngStreams(seed)
    sim = _make_simulator(optimize, engine_opts, bottleneck_rate)
    rate_bps = parse_bandwidth(bottleneck_rate)
    if buffer_packets is None:
        queue_spec = lambda: DropTailQueue(sim, unbounded=True)
    else:
        queue_spec = int(buffer_packets)
    net = build_dumbbell(
        sim,
        n_pairs=n_pairs,
        bottleneck_rate=rate_bps,
        buffer_packets=None,
        bottleneck_queue=queue_spec,
        rtts=[rtt],
        access_rate=rate_bps * access_multiplier,
    )
    t_end = warmup + duration
    collector = FctCollector(t_start=warmup, t_end=t_end)
    workload = ShortFlowWorkload.for_load(
        net, load=load, sizes=sizes, rng=streams.stream("arrivals"),
        t_stop=t_end, max_window=MAX_WINDOW_SHORT, on_complete=collector,
        cc=cc, mss=MSS,
    )
    util_mon = UtilizationMonitor(sim, net.bottleneck_link, t_start=warmup, t_end=t_end)
    queue_mon = QueueMonitor(sim, net.bottleneck_queue, t_start=warmup, t_end=t_end,
                             sample_period=max(duration / 2000.0, 0.005))
    workload.start()
    t_drain = t_end + duration * 0.25
    # Drain period so flows that started near t_end can complete.
    run_world(sim, net, t_drain, optimize=optimize, max_events=max_events,
              max_wall_seconds=max_wall_seconds, on_sim=on_sim)

    return ShortFlowResult(
        load=load,
        buffer_packets=buffer_packets,
        afct=collector.afct,
        n_completed=len(collector),
        drop_rate=queue_mon.loss_rate,
        utilization=util_mon.utilization,
        p99_fct=collector.percentile(0.99),
        flows_with_loss=collector.flows_with_loss,
        events_processed=sim.events_processed,
        metrics=_obs.snapshot(sim.now) if _obs.enabled else None,
    )
