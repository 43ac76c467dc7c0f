"""Implementations of the ``repro`` subcommands.

Each function takes the parsed ``argparse.Namespace`` and returns a
process exit code; all output goes to stdout.
"""

from __future__ import annotations

import argparse
import math
from typing import Optional

from repro.core import plan_buffer_memory, predicted_utilization, recommend_buffer
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ReproError,
    SimulationStalledError,
)
from repro.units import format_bandwidth, format_size, parse_bandwidth, parse_time

__all__ = [
    "cmd_size",
    "cmd_memory",
    "cmd_simulate_long",
    "cmd_simulate_short",
    "cmd_simulate_single",
    "cmd_fluid",
    "cmd_artefact",
    "cmd_sweep",
    "cmd_trace",
    "cmd_obs_report",
]


def _fail(message: str) -> int:
    print(f"error: {message}")
    return 2


def _abort(exc: Exception) -> int:
    """One-line diagnostic + exit code 3 for watchdog/invariant aborts,
    distinguishable from argument errors (2) in scripts and CI."""
    kind = "stalled" if isinstance(exc, SimulationStalledError) else "invariant"
    print(f"aborted ({kind}): {exc}")
    return 3


def _unknown_ccs(names) -> Optional[str]:
    """The error for any of ``names`` no congestion control is registered
    under, naming the choices; ``None`` when every name is known.

    Checked where ``--cc`` is used, not by the parser: a parser that
    listed the choices would load the simulator for ``repro size``."""
    from repro.tcp.congestion import available_ccs

    known = available_ccs()
    unknown = sorted(set(names) - set(known))
    if not unknown:
        return None
    return (f"unknown congestion control(s): {', '.join(unknown)} "
            f"(choose from {', '.join(known)})")


def _parse_faults(args: argparse.Namespace):
    """Build a FaultSchedule from ``--flap`` / ``--loss-burst`` flags.

    Returns ``None`` when no fault flag was given, so fault-free runs
    skip the machinery entirely.  Raises ``ReproError`` on bad specs.
    """
    from repro.errors import FaultError
    from repro.faults import FaultSchedule, LinkFlap, LossBurst

    def numbers(spec: str, count: int, usage: str):
        try:
            values = [float(part) for part in spec.split(",")]
        except ValueError:
            values = []
        if len(values) != count:
            raise FaultError(f"{usage}, got {spec!r}")
        return values

    schedule = FaultSchedule()
    if getattr(args, "flap", None):
        at, duration = numbers(
            args.flap, 2, "--flap wants AT,DURATION (e.g. 30,2)")
        schedule.add(LinkFlap(at=at, duration=duration))
    if getattr(args, "loss_burst", None):
        at, duration, probability = numbers(
            args.loss_burst, 3,
            "--loss-burst wants AT,DURATION,PROBABILITY (e.g. 30,5,0.02)")
        schedule.add(LossBurst(at=at, duration=duration,
                               probability=probability))
    return schedule if len(schedule) else None


def _flows(n_flows: int) -> int:
    """``--flows``, refused below one flow: there is no sqrt(0) buffer."""
    if n_flows < 1:
        raise ConfigurationError(f"--flows must be >= 1, got {n_flows}")
    return n_flows


def cmd_size(args: argparse.Namespace) -> int:
    """``repro size``: apply the paper's sizing rules to a link."""
    try:
        rec = recommend_buffer(
            capacity=args.capacity,
            rtt=args.rtt,
            n_long_flows=args.flows,
            short_flow_load=args.short_load,
            packet_bytes=args.packet_bytes,
        )
    except ReproError as exc:
        return _fail(str(exc))
    print(f"link: {args.capacity} at RTT {args.rtt}")
    if args.flows:
        print(f"  long flows: {args.flows}")
    if args.short_load:
        print(f"  short-flow load: {args.short_load}")
    print(f"  rule-of-thumb:  {rec.rule_of_thumb_packets:12.0f} packets "
          f"({format_size(rec.rule_of_thumb_packets * args.packet_bytes)})")
    if not math.isnan(rec.long_flow_packets):
        print(f"  sqrt(n) rule:   {rec.long_flow_packets:12.0f} packets")
    if not math.isnan(rec.short_flow_packets):
        print(f"  short-flow rule:{rec.short_flow_packets:12.0f} packets")
    print(f"  => {rec.summary()}")
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    """``repro memory``: chip counts and feasibility for a buffer."""
    try:
        plans = plan_buffer_memory(args.rate, args.buffer)
    except ReproError as exc:
        return _fail(str(exc))
    print(f"buffer {args.buffer} at line rate {args.rate}:")
    for plan in plans:
        speed = "fast enough" if plan.fast_enough else "TOO SLOW"
        verdict = "feasible" if plan.feasible else "not feasible"
        print(f"  {plan.technology.name:14s} {plan.chips:6d} chip(s), "
              f"{speed:12s} -> {verdict}")
    return 0


def cmd_simulate_long(args: argparse.Namespace) -> int:
    """``repro simulate long-flows``."""
    from repro.experiments.common import run_long_flow_experiment, sqrt_rule_packets

    ecn = getattr(args, "ecn", False)
    red = args.red or ecn
    unknown = _unknown_ccs([args.cc])
    if unknown:
        return _fail(unknown)
    try:
        if args.buffer_packets is not None:
            buffer_packets = args.buffer_packets
        else:
            buffer_packets = sqrt_rule_packets(
                args.pipe, _flows(args.flows), args.buffer_factor)
        faults = _parse_faults(args)
        result = run_long_flow_experiment(
            n_flows=args.flows,
            buffer_packets=buffer_packets,
            pipe_packets=args.pipe,
            bottleneck_rate=args.rate,
            warmup=args.warmup,
            duration=args.duration,
            seed=args.seed,
            cc=args.cc,
            red=red,
            pacing=args.pacing,
            sack=getattr(args, "sack", False),
            ecn=ecn,
            faults=faults,
            max_events=getattr(args, "max_events", None),
            max_wall_seconds=getattr(args, "timeout", None),
            utilization_probe_period=1.0 if faults is not None else None,
        )
    except (SimulationStalledError, InvariantViolation) as exc:
        return _abort(exc)
    except ReproError as exc:
        return _fail(str(exc))
    model = predicted_utilization(args.pipe, buffer_packets, args.flows)
    tags = "".join(
        f" ({name})" for name, on in
        [("RED", red), ("paced", args.pacing),
         ("SACK", getattr(args, "sack", False)), ("ECN", ecn)]
        if on
    )
    print(f"{args.flows} long-lived {args.cc} flows, pipe {args.pipe:.0f} pkts, "
          f"buffer {buffer_packets} pkts{tags}")
    print(f"  utilization: {result.utilization * 100:6.2f}%   "
          f"(Gaussian model: {model * 100:.2f}%)")
    print(f"  throughput:  {format_bandwidth(result.throughput_bps)}")
    if math.isnan(result.loss_rate):  # nothing reached the bottleneck
        print("  loss rate:   n/a (no packets offered)")
    else:
        print(f"  loss rate:   {result.loss_rate * 100:6.3f}%")
    print(f"  mean queue:  {result.mean_queue:6.1f} pkts")
    print(f"  timeouts:    {result.timeouts}, fast retransmits: "
          f"{result.fast_retransmits}")
    if result.fault_log:
        print("  faults:")
        for at, message in result.fault_log:
            print(f"    t={at:8.3f}s  {message}")
    return 0


def cmd_simulate_short(args: argparse.Namespace) -> int:
    """``repro simulate short-flows``."""
    from repro.experiments.common import run_short_flow_experiment
    from repro.traffic.sizes import FixedSize

    unknown = _unknown_ccs([getattr(args, "cc", "reno")])
    if unknown:
        return _fail(unknown)
    try:
        result = run_short_flow_experiment(
            load=args.load,
            buffer_packets=args.buffer_packets,
            sizes=FixedSize(args.flow_packets),
            bottleneck_rate=args.rate,
            rtt=args.rtt,
            duration=args.duration,
            seed=args.seed,
            cc=getattr(args, "cc", "reno"),
            max_events=getattr(args, "max_events", None),
            max_wall_seconds=getattr(args, "timeout", None),
        )
    except (SimulationStalledError, InvariantViolation) as exc:
        return _abort(exc)
    except ReproError as exc:
        return _fail(str(exc))
    buffer_label = (f"{args.buffer_packets} pkts" if args.buffer_packets
                    else "unbounded")
    print(f"short {getattr(args, 'cc', 'reno')} flows "
          f"({args.flow_packets} pkts) at load {args.load}, "
          f"buffer {buffer_label}")
    print(f"  flows completed: {result.n_completed}")
    if result.n_completed:
        print(f"  AFCT:        {result.afct * 1000:8.1f} ms "
              f"(p99: {result.p99_fct * 1000:.1f} ms)")
    else:
        print("  AFCT:        n/a (0 flows completed)")
    if math.isnan(result.drop_rate):  # nothing reached the bottleneck
        print("  drop rate:   n/a (no packets offered)")
    else:
        print(f"  drop rate:   {result.drop_rate * 100:8.3f}%")
    print(f"  utilization: {result.utilization * 100:8.2f}%")
    return 0


def cmd_simulate_single(args: argparse.Namespace) -> int:
    """``repro simulate single-flow``."""
    from repro.experiments.single_flow import run_single_flow

    try:
        trace = run_single_flow(
            args.fraction, pipe_packets=args.pipe,
            bottleneck_rate=args.rate, duration=args.duration,
        )
    except ReproError as exc:
        return _fail(str(exc))
    print(f"single flow, B = {args.fraction} x RTTxC = {trace.buffer_packets} pkts")
    print(f"  utilization: {trace.utilization * 100:.2f}% "
          f"(closed form: {trace.model_utilization * 100:.2f}%)")
    print(f"  queue range: [{trace.min_queue:.0f}, {trace.max_queue:.0f}] pkts")
    if trace.link_ever_idle and args.fraction < 1.0:
        print("  -> underbuffered: the queue drained and the link idled (Fig 4)")
    elif trace.standing_queue > 0:
        print("  -> overbuffered: a standing queue adds pure delay (Fig 5)")
    else:
        print("  -> correctly buffered: queue just touches zero (Fig 3)")
    return 0


def cmd_fluid(args: argparse.Namespace) -> int:
    """``repro fluid``: the fast deterministic integrator."""
    from repro.experiments.common import sqrt_rule
    from repro.fluid import FluidAimdModel

    try:
        rtt = parse_time(args.rtt)
        if rtt <= 0:
            raise ConfigurationError(f"--rtt must be > 0, got {args.rtt}")
        capacity_pps = args.pipe / rtt
        rtts = [rtt * (0.5 + (i + 1) / (args.flows + 1))
                for i in range(args.flows)]
        buffer_packets = sqrt_rule(args.pipe, _flows(args.flows), args.buffer_factor)
        model = FluidAimdModel(args.flows, capacity_pps, buffer_packets, rtts,
                               synchronized=args.synchronized)
        result = model.run(duration=args.duration, warmup=args.duration / 2)
    except ReproError as exc:
        return _fail(str(exc))
    mode = "synchronized" if args.synchronized else "desynchronized"
    print(f"fluid model: {args.flows} {mode} flows, "
          f"B = {buffer_packets:.1f} pkts "
          f"({args.buffer_factor} x pipe/sqrt(n))")
    print(f"  utilization: {result.utilization * 100:.2f}%")
    print(f"  mean queue:  {result.mean_queue:.1f} pkts")
    print(f"  loss events: {result.loss_events}")
    return 0


def cmd_artefact(args: argparse.Namespace) -> int:
    """``repro figure N`` / ``repro table N`` / ``repro ablations`` /
    ``repro cc-compare``.

    Prints the artefact's section of ``repro.experiments.report`` at the
    ``default`` scale — the same text the full report carries — and
    exits 3 when one of its claims is false.
    """
    from repro.experiments.report import run_section

    key = f"{args.section}{getattr(args, 'number', '')}"
    if key in ("fig3", "fig4", "fig5"):  # Figures 2-5 are one section
        key = "fig2"
    try:
        section = run_section(key)
    except (SimulationStalledError, InvariantViolation) as exc:
        return _abort(exc)
    except ReproError as exc:
        return _fail(str(exc))
    print(section.text)
    print(f"({section.seconds:.1f} s)")
    return 0 if section.ok else 3


def cmd_link_profiles(args: argparse.Namespace) -> int:
    """``repro profiles``: the canonical link classes and their buffers."""
    from repro.scenarios import PROFILES

    for profile in PROFILES.values():
        print(profile.describe())
    return 0


def _print_sweep_row(outcome) -> None:
    """One table row per cell outcome."""
    params = outcome.params
    label = (f"{params.get('cc', 'reno'):>8} {params['n_flows']:>6} "
             f"{params['buffer_packets']:>7}")
    if not outcome.ok:
        print(f"{label} {'-':>7} {'-':>7}  FAILED: {outcome.error}")
        return
    result = outcome.result
    util = result["utilization"] if isinstance(result, dict) else result.utilization
    loss = result["loss_rate"] if isinstance(result, dict) else result.loss_rate
    source = "checkpoint" if outcome.from_checkpoint else "computed"
    print(f"{label} {util * 100:>7.2f} {loss * 100:>7.3f}  {source}")


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep``: checkpointed long-flow grid under the supervisor.

    Every (cc, flows, buffer-factor) cell runs once, under ``--seed``,
    with per-trial watchdog budgets: a cell that stalls or breaks an
    invariant is a FAILED row naming its error, and the exit code is 3.
    With ``--checkpoint`` or ``--queue-dir`` a killed sweep resumes:
    each finished cell is one durable record in the queue directory,
    and the checkpoint is a view of them written when the run ends.  One
    :meth:`~repro.runner.supervisor.SweepSupervisor.run` prints a row
    per cell in grid order.  ``--jobs 1`` runs the cells in this
    process; ``--jobs N`` adds N worker processes that this process
    hands the cells to, one at a time.  Cell results, FAILED rows, records
    and the checkpoint are the same either way.
    """
    import contextlib
    import os
    import tempfile

    from repro.experiments.common import check_window, run_long_flow_experiment, sqrt_rule_packets
    from repro.runner import SweepSupervisor

    try:
        flows_list = [int(x) for x in args.flows.split(",")]
        factor_list = [float(x) for x in args.buffer_factors.split(",")]
    except ValueError:
        return _fail("--flows and --buffer-factors want comma-separated numbers")
    cc_list = [x.strip() for x in getattr(args, "cc", "reno").split(",")
               if x.strip()]
    if not cc_list:
        return _fail("--cc wants at least one congestion control, "
                     f"got {args.cc!r}")
    unknown = _unknown_ccs(cc_list)
    if unknown:
        return _fail(unknown)
    # Every cell shares these, so a bad one is the flag's fault, said
    # before a checkpoint is discarded or a worker started.
    try:
        check_window(args.warmup, args.duration)
    except ConfigurationError as exc:
        return _fail(f"--{exc}")
    try:
        if not parse_bandwidth(args.rate) > 0:
            return _fail("link rate must be positive")
    except ReproError as exc:
        return _fail(str(exc))
    if args.max_events is not None and args.max_events < 1:
        return _fail(f"--max-events must be >= 1, got {args.max_events}")
    if args.jobs < 0 or args.workers < 0:
        return _fail(f"--jobs and --workers must be >= 0, got "
                     f"{args.jobs} and {args.workers}")
    jobs = args.jobs or os.cpu_count() or 1
    # --workers N is --jobs N that takes the queue even at N = 1.
    workers = args.workers or (jobs if jobs > 1 else 0)

    try:
        grid = [
            dict(cc=cc, n_flows=n,
                 buffer_packets=sqrt_rule_packets(args.pipe, _flows(n), factor),
                 pipe_packets=args.pipe, bottleneck_rate=args.rate,
                 warmup=args.warmup, duration=args.duration, seed=args.seed)
            for cc in cc_list for n in flows_list for factor in factor_list
        ]
        with contextlib.ExitStack() as stack:
            queue_dir = args.queue_dir
            if workers and not (queue_dir or args.checkpoint):
                # Nothing asked to outlive the run.
                queue_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-queue-"))
            supervisor = SweepSupervisor(
                run_long_flow_experiment, checkpoint_path=args.checkpoint,
                resume=not args.fresh, max_events=args.max_events,
                max_wall_seconds=args.timeout, workers=workers,
                queue_dir=queue_dir)
            if supervisor.completed_cells or supervisor.parked:
                parked = (f" (unreadable checkpoint moved to "
                          f"{supervisor.parked})" if supervisor.parked else "")
                print(f"resuming: {supervisor.completed_cells} cell(s) "
                      f"already in {args.checkpoint or supervisor.queue_dir}"
                      f"{parked}")
            if workers:
                print(f"running {len(grid)} cell(s) on {workers} worker "
                      f"process(es), queue {supervisor.queue_dir}")
            print(f"{'cc':>8} {'flows':>6} {'buffer':>7} {'util%':>7} "
                  f"{'loss%':>7}  source")
            outcomes = supervisor.run(grid, on_cell=_print_sweep_row)
    except KeyboardInterrupt as exc:
        print(f"interrupted: {exc}")
        return 130
    except ReproError as exc:
        return _fail(str(exc))
    failures = sum(not outcome.ok for outcome in outcomes)
    if failures:
        print(f"{failures} cell(s) failed")
        return 3
    return 0


def _run_traced_scenario(args: argparse.Namespace):
    """Run the ``repro trace`` scenario (obs already enabled)."""
    from repro.experiments.common import (
        run_long_flow_experiment,
        run_short_flow_experiment,
        sqrt_rule_packets,
    )
    from repro.traffic.sizes import FixedSize

    if args.scenario == "long":
        if args.buffer_packets is not None:
            buffer_packets = args.buffer_packets
        else:
            buffer_packets = sqrt_rule_packets(
                args.pipe, _flows(args.flows), args.buffer_factor)
        return run_long_flow_experiment(
            n_flows=args.flows,
            buffer_packets=buffer_packets,
            pipe_packets=args.pipe,
            bottleneck_rate=args.rate,
            warmup=args.warmup,
            duration=args.duration,
            seed=args.seed,
            faults=_parse_faults(args),
            max_events=args.max_events,
            max_wall_seconds=args.timeout,
        )
    return run_short_flow_experiment(
        load=args.load,
        buffer_packets=args.buffer_packets,
        sizes=FixedSize(args.flow_packets),
        bottleneck_rate=args.rate,
        rtt=args.rtt,
        warmup=args.warmup,
        duration=args.duration,
        seed=args.seed,
        max_events=args.max_events,
        max_wall_seconds=args.timeout,
    )


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace``: run one scenario with the flight recorder on.

    Records structured events (enqueue/drop/mark, cwnd changes, RTOs,
    fault and link transitions) into the bounded ring buffer and dumps
    them to ``--out`` as JSONL, followed by a per-kind tally and the
    headline counters of the final metrics snapshot.  If the run aborts
    (watchdog or invariant), the events captured so far are still
    dumped to the same path — that crash dump is the point of a flight
    recorder.
    """
    from repro import obs

    if args.scenario == "short":
        # The short-flow runner takes no fault schedule: refuse the
        # flags rather than run a fault-free trace.
        given = [flag for flag, value in (("--flap", args.flap),
                                          ("--loss-burst", args.loss_burst))
                 if value is not None]
        if given:
            return _fail(f"{' and '.join(given)}: the short scenario "
                         f"injects no faults (long scenario only)")
    kinds = None
    if args.kinds:
        kinds = {k.strip() for k in args.kinds.split(",") if k.strip()}
        unknown = sorted(kinds - obs.EVENT_KINDS)
        if unknown:
            return _fail(f"unknown event kind(s): {', '.join(unknown)} "
                         f"(valid: {', '.join(sorted(obs.EVENT_KINDS))})")
    capacity = args.capacity if args.capacity is not None else obs.DEFAULT_CAPACITY
    if capacity < 1:
        return _fail(f"--capacity must be >= 1, got {capacity}")

    obs.enable(capacity=capacity, kinds=kinds, crash_dump_path=args.out)
    try:
        try:
            result = _run_traced_scenario(args)
        except (SimulationStalledError, InvariantViolation) as exc:
            # The experiment runner already crash-dumped the recorder.
            if len(obs.recorder()):
                print(f"flight recorder dump: {args.out}")
            return _abort(exc)
        except ReproError as exc:
            return _fail(str(exc))
        recorder = obs.recorder()
        try:
            written = recorder.dump_jsonl(args.out)
        except OSError as exc:
            return _fail(f"cannot write {args.out!r}: {exc}")
        recorded = recorder.recorded
        counts = recorder.counts_by_kind()
        snapshot = result.metrics or {}
    finally:
        obs.disable()

    print(f"traced {args.scenario} scenario (seed {args.seed}): "
          f"{recorded} event(s) recorded")
    if recorded > written:
        print(f"  ring buffer kept the last {written} "
              f"(--capacity {capacity}; oldest evicted)")
    for kind in sorted(counts):
        print(f"  {kind:<10} {counts[kind]}")
    counters = snapshot.get("counters", {})
    for name in ("queue.drops", "tcp.retransmits", "timer.lazy_deferrals"):
        if name in counters:
            print(f"  {name:<22} {counters[name]}")
    print(f"wrote {written} event(s) to {args.out}")
    print(f"next: repro obs report {args.out}")
    return 0


def cmd_obs_report(args: argparse.Namespace) -> int:
    """``repro obs report``: summarize a trace or metrics snapshot.

    Accepts a JSONL event trace (from ``repro trace`` or a crash dump),
    a bare metrics-snapshot JSON, or any result/checkpoint JSON with an
    embedded ``metrics`` dict.  ``--validate`` additionally checks every
    trace event against the schema before summarizing.
    """
    from repro.errors import ObsError
    from repro.obs import load_report_source, render_report, validate_events

    try:
        if args.validate:
            shape, source = load_report_source(args.file)
            if shape == "trace":
                validate_events(source)
                print(f"{len(source)} event(s) validated against the schema")
        print(render_report(args.file))
    except ObsError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        raise  # closed stdout (e.g. `| head`), not a file problem
    except OSError as exc:
        return _fail(f"cannot read {args.file!r}: {exc}")
    return 0
