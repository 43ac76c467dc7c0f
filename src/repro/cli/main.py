"""Argument parsing and dispatch for the ``repro`` command."""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import commands
from repro.tcp.congestion import available_ccs

__all__ = ["build_parser", "main"]


def _add_watchdog_args(parser: argparse.ArgumentParser) -> None:
    """Watchdog budgets shared by the simulation-running subcommands."""
    parser.add_argument("--max-events", type=int, default=None,
                        help="abort after this many simulation events")
    parser.add_argument("--timeout", type=float, default=None,
                        help="abort after this many wall-clock seconds")


def build_parser() -> argparse.ArgumentParser:
    """Construct the full argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sizing Router Buffers (SIGCOMM 2004): sizing rules, "
                    "packet-level simulation, and the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_size = sub.add_parser("size", help="size a router buffer for a link")
    p_size.add_argument("--capacity", required=True,
                        help='link capacity, e.g. "2.5Gbps"')
    p_size.add_argument("--rtt", default="250ms",
                        help='mean round-trip propagation time (default 250ms)')
    p_size.add_argument("--flows", type=int, default=0,
                        help="concurrent long-lived flows (default 0)")
    p_size.add_argument("--short-load", type=float, default=0.0,
                        help="short-flow load in (0,1) (default 0: none)")
    p_size.add_argument("--packet-bytes", type=int, default=1000,
                        help="average packet size (default 1000)")
    p_size.set_defaults(func=commands.cmd_size)

    p_mem = sub.add_parser("memory", help="memory plan for a buffer")
    p_mem.add_argument("--rate", required=True,
                       help='linecard rate, e.g. "40Gbps"')
    p_mem.add_argument("--buffer", required=True,
                       help='buffer size, e.g. "1.25GB" or "10Mbit"')
    p_mem.set_defaults(func=commands.cmd_memory)

    p_sim = sub.add_parser("simulate", help="run one packet-level simulation")
    sim_sub = p_sim.add_subparsers(dest="scenario", required=True)

    p_long = sim_sub.add_parser("long-flows",
                                help="n long-lived flows through a bottleneck")
    p_long.add_argument("--flows", type=int, default=64)
    p_long.add_argument("--buffer-factor", type=float, default=1.0,
                        help="buffer in units of RTTxC/sqrt(n) (default 1.0)")
    p_long.add_argument("--buffer-packets", type=int, default=None,
                        help="absolute buffer in packets (overrides factor)")
    p_long.add_argument("--pipe", type=float, default=400.0,
                        help="bandwidth-delay product in packets (default 400)")
    p_long.add_argument("--rate", default="40Mbps")
    p_long.add_argument("--warmup", type=float, default=20.0)
    p_long.add_argument("--duration", type=float, default=40.0)
    p_long.add_argument("--seed", type=int, default=1)
    p_long.add_argument("--cc", default="reno", choices=available_ccs(),
                        help="congestion control (default reno)")
    p_long.add_argument("--red", action="store_true",
                        help="use a RED queue instead of drop-tail")
    p_long.add_argument("--pacing", action="store_true",
                        help="pace senders at srtt/cwnd")
    p_long.add_argument("--sack", action="store_true",
                        help="SACK senders/receivers (RFC 2018/6675)")
    p_long.add_argument("--ecn", action="store_true",
                        help="ECN marking instead of dropping (implies --red)")
    p_long.add_argument("--flap", default=None, metavar="AT,DURATION",
                        help='take the bottleneck down mid-run, e.g. "30,2"')
    p_long.add_argument("--loss-burst", default=None, metavar="AT,DUR,PROB",
                        help='random loss burst on the bottleneck queue, '
                             'e.g. "30,5,0.02"')
    _add_watchdog_args(p_long)
    p_long.set_defaults(func=commands.cmd_simulate_long)

    p_short = sim_sub.add_parser("short-flows",
                                 help="Poisson short flows at a target load")
    p_short.add_argument("--load", type=float, default=0.8)
    p_short.add_argument("--buffer-packets", type=int, default=None,
                         help="buffer in packets (default: unbounded)")
    p_short.add_argument("--flow-packets", type=int, default=14)
    p_short.add_argument("--rate", default="40Mbps")
    p_short.add_argument("--rtt", default="80ms")
    p_short.add_argument("--duration", type=float, default=40.0)
    p_short.add_argument("--seed", type=int, default=1)
    p_short.add_argument("--cc", default="reno", choices=available_ccs(),
                         help="congestion control (default reno)")
    _add_watchdog_args(p_short)
    p_short.set_defaults(func=commands.cmd_simulate_short)

    p_single = sim_sub.add_parser("single-flow",
                                  help="one long-lived flow (Figures 2-5)")
    p_single.add_argument("--fraction", type=float, default=1.0,
                          help="buffer as a fraction of RTTxC (default 1.0)")
    p_single.add_argument("--pipe", type=float, default=125.0)
    p_single.add_argument("--rate", default="10Mbps")
    p_single.add_argument("--duration", type=float, default=100.0)
    p_single.set_defaults(func=commands.cmd_simulate_single)

    p_fluid = sub.add_parser("fluid", help="fast fluid-model integration")
    p_fluid.add_argument("--flows", type=int, default=64)
    p_fluid.add_argument("--buffer-factor", type=float, default=1.0)
    p_fluid.add_argument("--pipe", type=float, default=400.0,
                         help="pipe in packets (default 400)")
    p_fluid.add_argument("--rtt", default="80ms")
    p_fluid.add_argument("--synchronized", action="store_true",
                         help="all flows halve together (lockstep mode)")
    p_fluid.add_argument("--duration", type=float, default=120.0)
    p_fluid.set_defaults(func=commands.cmd_fluid)

    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("number", type=int, choices=[2, 3, 4, 5, 6, 7, 8, 9],
                       help="figure number (2-5 share one section)")
    p_fig.set_defaults(func=commands.cmd_artefact)

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=[10, 11])
    p_table.set_defaults(func=commands.cmd_artefact)

    p_abl = sub.add_parser("ablations", help="run the ablation suite")
    p_abl.set_defaults(func=commands.cmd_artefact)

    p_ccc = sub.add_parser(
        "cc-compare", help="congestion-control zoo comparison: Gaussianity, "
                           "synchronization, and min-buffer vs n per CC")
    p_ccc.add_argument("--cc", default="reno,compound,scalable,hstcp,bbr",
                       help="comma-separated congestion controls to compare "
                            '(default: the full zoo)')
    p_ccc.add_argument("--flows", default="8,16,32",
                       help='comma-separated flow counts (default "8,16,32")')
    p_ccc.add_argument("--pipe", type=float, default=100.0,
                       help="bandwidth-delay product in packets (default 100)")
    p_ccc.add_argument("--rate", default="10Mbps")
    p_ccc.add_argument("--warmup", type=float, default=5.0)
    p_ccc.add_argument("--duration", type=float, default=15.0)
    p_ccc.add_argument("--seed", type=int, default=1)
    p_ccc.add_argument("--target-utilization", type=float, default=0.98,
                       help="utilization SLO for the min-buffer search "
                            "(default 0.98)")
    p_ccc.add_argument("--output", default=None, metavar="FILE",
                       help="also write the full comparison as JSON")
    _add_watchdog_args(p_ccc)
    p_ccc.set_defaults(func=commands.cmd_cc_compare)

    p_prof = sub.add_parser("profiles",
                            help="list canonical link profiles and their buffers")
    p_prof.set_defaults(func=commands.cmd_link_profiles)

    p_sweep = sub.add_parser(
        "sweep", help="checkpointed long-flow grid (watchdog + retry + resume)",
        description="One loop prints a row per cell, in grid order; --jobs "
                    "N adds N worker processes to it (cells they leave "
                    "open run in this process).")
    p_sweep.add_argument("--flows", default="16,64",
                         help='comma-separated flow counts (default "16,64")')
    p_sweep.add_argument("--buffer-factors", default="0.5,1.0",
                         help='comma-separated buffer factors in units of '
                              'RTTxC/sqrt(n) (default "0.5,1.0")')
    p_sweep.add_argument("--cc", default="reno",
                         help='comma-separated congestion controls for the '
                              'grid (default "reno"); each becomes a grid '
                              'axis value, e.g. "reno,compound,bbr"')
    p_sweep.add_argument("--pipe", type=float, default=400.0)
    p_sweep.add_argument("--rate", default="40Mbps")
    p_sweep.add_argument("--warmup", type=float, default=20.0,
                         help="seconds before measuring (finite, >= 0)")
    p_sweep.add_argument("--duration", type=float, default=40.0,
                         help="seconds measured (finite, > 0)")
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--checkpoint", default=None, metavar="FILE",
                         help="JSON checkpoint; rerunning with the same file "
                              "skips completed cells")
    p_sweep.add_argument("--fresh", action="store_true",
                         help="ignore an existing checkpoint instead of resuming")
    p_sweep.add_argument("--retries", type=int, default=2,
                         help="retries (with reseed) per transiently-failing "
                              "cell (default 2)")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes (default 1 = in this "
                              "process, 0 = all cores); N > 1 adds N "
                              "workers that lease the cells from a work "
                              "queue (work stealing, SIGKILL-safe): same "
                              "rows, results and checkpoint as --jobs 1")
    p_sweep.add_argument("--workers", type=int, default=0, metavar="N",
                         help="--jobs N that takes the work queue even at "
                              "N = 1 (default 0: --jobs decides)")
    p_sweep.add_argument("--queue-dir", default=None, metavar="DIR",
                         help="work-queue directory (default: "
                              "<checkpoint>.queue, or a temporary directory "
                              "removed afterwards when there is no "
                              "--checkpoint); detached 'repro worker' "
                              "processes may attach to it")
    p_sweep.add_argument("--lease-seconds", type=float, default=10.0,
                         help="lease expiry horizon; a worker dead "
                              "longer than this has its cell stolen "
                              "(default 10)")
    p_sweep.add_argument("--max-lease-failures", type=int, default=3,
                         help="leases lost to dead workers before a cell "
                              "is quarantined as poison (default 3)")
    _add_watchdog_args(p_sweep)
    p_sweep.set_defaults(func=commands.cmd_sweep)

    p_worker = sub.add_parser(
        "worker", help="attach one detachable work-stealing worker to a "
                       "sweep's queue directory (see repro sweep --jobs)")
    p_worker.add_argument("queue_dir", metavar="QUEUE_DIR",
                          help="queue directory created by repro sweep "
                               "--jobs N (contains spec.json)")
    p_worker.add_argument("--name", default=None,
                          help="worker name for leases/logs (default: "
                               "worker-<pid>)")
    p_worker.set_defaults(func=commands.cmd_worker)

    p_trace = sub.add_parser(
        "trace", help="run a scenario with the flight recorder on and "
                      "dump the event stream to JSONL")
    p_trace.add_argument("scenario", nargs="?", default="long",
                         choices=["long", "short"],
                         help="scenario to trace (default: long)")
    p_trace.add_argument("--flows", type=int, default=16,
                         help="long-lived flow count (long scenario)")
    p_trace.add_argument("--buffer-factor", type=float, default=1.0,
                         help="buffer in units of RTTxC/sqrt(n) (default 1.0)")
    p_trace.add_argument("--buffer-packets", type=int, default=None,
                         help="absolute buffer in packets (overrides factor; "
                              "short scenario default: unbounded)")
    p_trace.add_argument("--pipe", type=float, default=80.0,
                         help="bandwidth-delay product in packets (default 80)")
    p_trace.add_argument("--rate", default="10Mbps")
    p_trace.add_argument("--rtt", default="80ms",
                         help="round-trip time (short scenario)")
    p_trace.add_argument("--load", type=float, default=0.8,
                         help="offered load (short scenario)")
    p_trace.add_argument("--flow-packets", type=int, default=14,
                         help="packets per short flow (short scenario)")
    p_trace.add_argument("--warmup", type=float, default=2.0)
    p_trace.add_argument("--duration", type=float, default=6.0)
    p_trace.add_argument("--seed", type=int, default=1)
    p_trace.add_argument("--out", default="trace.jsonl", metavar="FILE",
                         help="JSONL output path (default trace.jsonl); also "
                              "the crash-dump path if the run aborts")
    p_trace.add_argument("--kinds", default=None, metavar="K1,K2,...",
                         help="record only these event kinds (default: all); "
                              'e.g. "drop,cwnd,rto" to skip per-packet '
                              "enqueues")
    p_trace.add_argument("--capacity", type=int, default=None, metavar="N",
                         help="flight-recorder ring size in events "
                              "(default 65536; oldest events are evicted)")
    p_trace.add_argument("--flap", default=None, metavar="AT,DURATION",
                         help='take the bottleneck down mid-run, e.g. "3,1" '
                              "(long scenario)")
    p_trace.add_argument("--loss-burst", default=None, metavar="AT,DUR,PROB",
                         help="random loss burst on the bottleneck queue "
                              "(long scenario)")
    _add_watchdog_args(p_trace)
    p_trace.set_defaults(func=commands.cmd_trace)

    p_obs = sub.add_parser(
        "obs", help="observability utilities (report on traces/snapshots)")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_report = obs_sub.add_parser(
        "report", help="summarize a JSONL trace or metrics snapshot")
    p_report.add_argument("file", help="trace JSONL, metrics-snapshot JSON, "
                                       "or a result/checkpoint JSON with an "
                                       "embedded 'metrics' dict")
    p_report.add_argument("--validate", action="store_true",
                          help="validate trace events against the event "
                               "schema before summarizing")
    p_report.set_defaults(func=commands.cmd_obs_report)

    p_lint = sub.add_parser(
        "lint", help="simulation-correctness static analysis "
                     "(determinism, durability, slots, sim-time, "
                     "pool safety, units)")
    p_lint.add_argument("paths", nargs="*", metavar="PATH",
                        help="files/directories to lint (default: src/repro)")
    p_lint.add_argument("--select", action="append", default=None,
                        metavar="RULE",
                        help="rule id or prefix to run (repeatable), "
                             'e.g. --select REPRO6 for the unit checkers')
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="diagnostic output format (default text)")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    p_lint.set_defaults(func=commands.cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
