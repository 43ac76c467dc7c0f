#!/usr/bin/env python3
"""Re-measure the committed ledger: ``bench/ledger/{e2e,layers}.json``.

One baseline per workload at the default seed.  ``e2e.json`` pools the
per-repeat samples of ``RUNS`` end-to-end runs (repeat count, min, q1, median, q3 beside
every number, plus each run's own median so the run-to-run spread is
visible); ``layers.json`` holds one traced run per workload, long enough
for several interleaved rounds of the ablation arms.  Both carry an
environment stamp.  Run it on an otherwise idle machine, after any PR
that adds a workload or a counter, and never in a PR that claims a gain.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from bench import DEFAULT_SEED, OUT, ROOT, load_contract, stats  # noqa: E402
from bench.harness import environment, invoke, values  # noqa: E402

LEDGER = ROOT / "bench" / "ledger"
#: End-to-end runs pooled per workload.
RUNS = 5
#: Time box of the traced run's ablation rounds: several rounds of every
#: arm on every workload.
TRACE_SECONDS = 60.0


def _detailed(workload: str, seed: int, seconds: float, trace: int):
    """One run plus its ``--detail`` file."""
    OUT.mkdir(parents=True, exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=OUT)
    os.close(fd)
    try:
        result = invoke(workload, seed, seconds, trace,
                        extra=["--detail", path])
        with open(path, "r", encoding="utf-8") as fh:
            return result, json.load(fh)
    finally:
        os.unlink(path)


def measure_e2e(workload: str, contract: Dict[str, Any]) -> Dict[str, Any]:
    units = {metric["name"]: metric["unit"]
             for metric in contract["end_to_end"] + contract["per_layer"]}
    # Host seconds as measured, and the kernel times that scaled them.
    units.update(raw_wall_s="s", yardstick_s="s")
    per_run: Dict[str, List[float]] = {}
    pooled: Dict[str, List[float]] = {}
    attempted = failed = 0
    detail: Dict[str, Any] = {}
    for i in range(RUNS):
        result, detail = _detailed(workload, DEFAULT_SEED,
                                   float(contract["run_seconds"]), trace=0)
        print(f"  {workload} e2e run {i + 1}/{RUNS}: "
              f"wall_s {values(result)['wall_s']:.4f}", flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        # Every series the run sampled: the gated metrics, and on
        # sweep_grid the per-executor rates measured with tracing off.
        series = dict(detail["samples"], raw_wall_s=detail["raw_wall_s"],
                      yardstick_s=detail["yardstick_s"],
                      peak_rss_mb=[values(result)["peak_rss_mb"]])
        for name, samples in series.items():
            per_run.setdefault(name, []).append(stats.median(samples))
            pooled.setdefault(name, []).extend(samples)
    metrics = {
        name: dict(unit=units[name], **stats.summary(pooled[name]),
                   per_run_median=per_run[name],
                   run_to_run_spread=stats.spread(per_run[name]))
        for name in pooled}
    return {"params_hash": detail["params_hash"], "inputs": detail["inputs"],
            "events_per_repeat": detail["events_per_repeat"],
            "attempted": attempted, "failed": failed,
            "fail_share": failed / attempted, "metrics": metrics}


def measure_layers(workload: str, noise: float,
                   contract: Dict[str, Any]) -> Dict[str, Any]:
    result, detail = _detailed(workload, DEFAULT_SEED, TRACE_SECONDS, trace=1)
    print(f"  {workload} traced run: {detail['rounds']} round(s)", flush=True)
    metrics = {}
    for metric in contract["per_layer"]:
        name = metric["name"]
        entry: Dict[str, Any] = {"unit": metric["unit"],
                                 "value": values(result)[name]}
        if name in detail["unmeasured"]:
            entry["value"] = None  # does not exist on this workload
        elif name.endswith(".cost_ratio") or name == "obs.tax_ratio":
            # Inside the band, deleting the knob should leave
            # events_per_s unchanged on this workload.
            entry["inside_noise_band"] = abs(entry["value"] - 1.0) <= noise
        metrics[name] = entry
    return {"params_hash": detail["params_hash"], "rounds": detail["rounds"],
            "noise_band": [1.0 - noise, 1.0 + noise],
            "attempted": result["attempted"], "failed": result["failed"],
            "arm_wall_s": detail["arm_wall_s"],
            "arm_cost_ratio_per_round": detail["arm_cost_ratio_per_round"],
            "self_share_sum": detail["self_share_sum"],
            "self_share_other": detail["self_share_other"],
            "metrics": metrics}


def main() -> int:
    contract = load_contract()
    stamp = dict(environment(), seed=DEFAULT_SEED)
    e2e: Dict[str, Any] = {}
    layers: Dict[str, Any] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        e2e[workload] = measure_e2e(workload, contract)
        wall = e2e[workload]["metrics"]["wall_s"]
        noise = (wall["q3"] - wall["q1"]) / wall["median"]
        layers[workload] = measure_layers(workload, noise, contract)

    LEDGER.mkdir(exist_ok=True)
    for name, body, extra in (
            ("e2e.json", e2e, {"run_seconds": contract["run_seconds"],
                               "runs_per_workload": RUNS}),
            ("layers.json", layers, {"trace_seconds": TRACE_SECONDS})):
        with open(LEDGER / name, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "environment": stamp, **extra,
                       "workloads": body}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    failed = sum(w["failed"] for w in list(e2e.values()) + list(layers.values()))
    print(f"ledger written to {LEDGER} ({failed} failed operation(s))")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
