#!/usr/bin/env python3
"""A/A harness: two sets of runs of the same code, judged by the bounds.

For every workload, ``RUNS`` pairs of end-to-end runs of ``run_seconds``
each, each pair on its own seed (held-out seed + pair number),
alternating which set goes first.  Per metric it prints
both medians, how much worse B reads than A as a share of A, each set's
spread (interquartile distance over median, the driver's measure) and
the bound from ``BENCHMARK.json``.  It fails when a difference exceeds
its bound in either direction, when a spread (``setup_s`` excepted)
exceeds its bound, or when any run reported a failed operation.

``--counts`` instead runs two traced runs per workload on one seed and
requires every ``count`` metric to agree exactly.

The output of this tool is what the bounds in ``BENCHMARK.json`` are
derived from; paste it into the PR that changes them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench import HELD_OUT_SEED, load_contract, stats  # noqa: E402
from bench.harness import invoke, values  # noqa: E402

#: Runs per set and workload, as many as the driver makes.
RUNS = 10


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` reads than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def compare_e2e(workload: str, contract: Dict[str, Any]) -> Dict[str, Any]:
    seconds = float(contract["run_seconds"])
    sets: Dict[str, List[Dict[str, float]]] = {"A": [], "B": []}
    failed_ops = 0
    for i in range(RUNS):
        for label in ("AB", "BA")[i % 2]:
            result = invoke(workload, HELD_OUT_SEED + i, seconds)
            failed_ops += result["failed"]
            sets[label].append(values(result))
            print(f"  {workload} seed {HELD_OUT_SEED + i} set {label}: "
                  f"wall_s {sets[label][-1]['wall_s']:.4f}", flush=True)
    rows = []
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = [run[name] for run in sets["A"]]
        b = [run[name] for run in sets["B"]]
        diff = worse_by(stats.median(a), stats.median(b), metric["better"])
        spreads = (stats.spread(a), stats.spread(b))
        ok = abs(diff) <= bound and (name == "setup_s"
                                     or max(spreads) <= bound)
        rows.append({"metric": name, "unit": metric["unit"],
                     "median_a": stats.median(a), "median_b": stats.median(b),
                     "b_worse_by": diff, "spread_a": spreads[0],
                     "spread_b": spreads[1], "bound": bound, "ok": ok,
                     "steady": max(spreads) <= bound / 3})
    return {"workload": workload, "failed_operations": failed_ops,
            "rows": rows, "ok": failed_ops == 0 and all(r["ok"] for r in rows)}


def compare_counts(workload: str, contract: Dict[str, Any]) -> Dict[str, Any]:
    # One ablation round each: counts do not depend on how long it runs.
    first = invoke(workload, HELD_OUT_SEED, 0, trace=1)
    second = invoke(workload, HELD_OUT_SEED, 0, trace=1)
    counts = [m["name"] for m in contract["per_layer"] if m["unit"] == "count"]
    a, b = values(first), values(second)
    differing = {name: (a[name], b[name]) for name in counts
                 if a[name] != b[name]}
    failed_ops = first["failed"] + second["failed"]
    return {"workload": workload, "counts_compared": len(counts),
            "differing": differing, "failed_operations": failed_ops,
            "ok": not differing and failed_ops == 0}


def print_report(report: Dict[str, Any]) -> None:
    print(f"\n== {report['workload']}: {RUNS} runs per set, "
          f"{report['failed_operations']} failed operation(s)")
    print(f"{'metric':<22} {'unit':<9} {'median A':>12} {'median B':>12} "
          f"{'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for row in report["rows"]:
        verdict = "ok" if row["ok"] else "EXCEEDS BOUND"
        if row["ok"] and not row["steady"]:
            verdict = "ok (spread > bound/3)"
        print(f"{row['metric']:<22} {row['unit']:<9} {row['median_a']:>12.5g} "
              f"{row['median_b']:>12.5g} {row['b_worse_by']:>+10.2%} "
              f"{row['spread_a']:>9.2%} {row['spread_b']:>9.2%} "
              f"{row['bound']:>6.0%}  {verdict}")


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", action="store_true",
                        help="compare the exact counts of two traced runs "
                             "instead of the end-to-end medians")
    args = parser.parse_args(argv)

    ok = True
    for workload in (w["name"] for w in contract["workloads"]):
        if args.counts:
            report = compare_counts(workload, contract)
            print(f"== {workload}: {report['counts_compared']} counts, "
                  f"{len(report['differing'])} differing "
                  f"{report['differing'] or ''}", flush=True)
        else:
            report = compare_e2e(workload, contract)
            print_report(report)
        ok = ok and report["ok"]
    print("\nA/A: " + ("within bounds" if ok else "OUT OF BOUNDS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
