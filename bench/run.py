#!/usr/bin/env python3
"""One benchmark run: ``--workload W --seed S --seconds T --trace 0|1``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the ``end_to_end`` list of ``BENCHMARK.json``, with
``--trace 1`` its ``per_layer`` list.  Exit code is non-zero when any
operation failed (``fail_share > 0``) or the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

# Run as a script, sys.path[0] is bench/ itself; the package root is
# one level up.  Spawned sweep workers re-import this file as
# ``__mp_main__``, so nothing heavier than this belongs at module level.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)


def build_parser() -> argparse.ArgumentParser:
    from bench import DEFAULT_SEED
    from bench.workloads import SCALES, SPECS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run: per-layer metrics plus a "
                             "span file; never used for end-to-end numbers")
    parser.add_argument("--scale", choices=SCALES, default="full",
                        help="smoke = tiny scenarios for the self-test")
    parser.add_argument("--detail", metavar="FILE", default=None,
                        help="also write every sample, summary and failure "
                             "reason as JSON (the ledger reads this)")
    parser.add_argument("--spans-out", metavar="FILE", default=None,
                        help="traced run: where the span file goes "
                             "(default bench/out/spans-<workload>-<seed>.json)")
    # Internal re-entry, not an option: import, warm up, exit.  It is
    # what a set-up probe runs and setup_s times.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def result_line(metrics: Dict[str, float], units: Dict[str, str],
                attempted: int, failed: int) -> str:
    """The contract's result object; refuses a metric set that drifted."""
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics emitted and BENCHMARK.json disagree: "
            f"missing {sorted(set(units) - set(metrics))}, "
            f"unlisted {sorted(set(metrics) - set(units))}")
    bad = [name for name, value in metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metric value(s): {bad}")
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def stop_children(grace: float = 10.0) -> int:
    """Wait until every process this run started has ended.

    The ``--jobs 2`` / ``--workers 2`` passes spawn through
    multiprocessing, whose resource tracker is a child that outlives its
    parent by design: it exits when the parent's end of a pipe closes,
    which without this is a few milliseconds *after* this process is
    gone.  Close that pipe and wait.  Any other child still alive after
    ``grace`` seconds is killed; returns how many were.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    killed = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # no child left
        if pid == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        elif pid == 0:
            for child in _live_children():
                os.kill(child, signal.SIGKILL)
                killed += 1
            deadline = float("inf")  # now only reaping what was killed


def _live_children() -> List[int]:
    """Direct children of this process that have not exited (``/proc``)."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as fh:
                state, parent = fh.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if int(parent) == os.getpid() and state != "Z":
            found.append(int(entry))
    return found


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    finally:
        # Every path out, the set-up probe's and a crash's included.
        stop_children()


def _run(args: argparse.Namespace) -> int:
    import bench

    try:
        bench.add_src_to_path()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from bench.workloads import SPECS

    spec = SPECS[args.workload]
    if args.setup_probe:
        from bench.e2e import warm_up
        warm_up(spec, args.seed)
        return 0

    contract = bench.load_contract()
    seconds = (float(contract["run_seconds"]) if args.seconds is None
               else args.seconds)
    if args.trace:
        from bench.tracing import run_traced
        spans_out = args.spans_out or str(
            bench.OUT / f"spans-{spec.name}-{args.seed}.json")
        outcome = run_traced(spec, args.seed, seconds, args.scale, spans_out)
        listed = contract["per_layer"]
    else:
        from bench.e2e import run_e2e
        outcome = run_e2e(spec, args.seed, seconds, args.scale)
        listed = contract["end_to_end"]

    if stop_children():
        # Not a countable operation: the run itself is unusable.
        raise RuntimeError("a spawned process outlived the run; killed it")
    units = {metric["name"]: metric["unit"] for metric in listed}
    line = result_line(outcome.metrics, units, outcome.tally.attempted,
                       outcome.tally.failed)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(outcome.detail, fh, indent=1, sort_keys=True,
                      default=repr)
    for reason in outcome.tally.reasons:
        print(f"bench: FAILED: {reason}", file=sys.stderr)
    print(line)
    return 1 if outcome.tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
