"""End-to-end run: timed repeats with tracing off, then the oracles.

One run = one discarded smoke-scale warm-up, repeats of the workload
back to back (closed loop, one client) until ``seconds`` have elapsed,
a memory sample, the set-up probes, and the correctness checks.  Every
timed section is followed by one pass of the yardstick kernel and
reported in scaled seconds (see :mod:`bench.yardstick`); raw host
seconds go to ``--detail``.  Every repeat, sweep cell, CLI exit code,
set-up probe and check counts into the tally the result line reports as
``attempted`` / ``failed``.
"""

from __future__ import annotations

import gc
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from bench import stats
from bench.workloads import (
    E2E_PASSES,
    Spec,
    SweepPass,
    fingerprint,
    grid_cells,
    make_inputs,
    params_hash,
    run_sweep_pass,
    run_units,
    sanity_checks,
    scratch_dir,
)
from bench.yardstick import Yardstick

#: Fresh interpreters timed for ``setup_s`` in a full-scale run: the
#: fewest that give a median.
SETUP_PROBES = 3


@dataclass
class Tally:
    """Operations attempted and failed, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)
        return ok

    def count(self, attempted: int, failed: int, reason: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.reasons.append(f"{failed} x {reason}")


@dataclass
class Outcome:
    """A finished run: metric values, the tally, and the full detail."""

    metrics: Dict[str, float]
    tally: Tally
    detail: Dict[str, Any]


def warm_up(spec: Spec, seed: int) -> None:
    """One discarded smoke-scale repeat: lazy imports, first-call set-up."""
    inputs = make_inputs(spec, seed, "smoke")
    if spec.kind == "sweep":
        with scratch_dir() as scratch:
            for executor in E2E_PASSES:
                run_sweep_pass(inputs, executor, scratch)
    else:
        run_units([(spec.kind, inputs)])


def probe_setup(spec: Spec, seed: int, probes: int, tally: Tally,
                yardstick: Yardstick) -> List[float]:
    """Time ``probes`` fresh interpreters from start to end of warm-up.

    Set-up is what a user pays before the first useful event: starting
    python, importing ``repro``, and whatever the first call initialises
    lazily.  It is measured in child processes so it can be sampled
    several times per run; each child is waited for before the next.
    """
    from bench import ROOT

    argv = [sys.executable, str(ROOT / "bench" / "run.py"),
            "--workload", spec.name, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(probes):
        # No timeout: with one, subprocess polls the child on a 50 ms
        # back-off and the measured time is quantised to it.
        started = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, cwd=ROOT)
        raw = time.perf_counter() - started
        samples.append(raw * yardstick.factor())
        tally.check(proc.returncode == 0,
                    f"set-up probe exited {proc.returncode}")
    return samples


def _measure_sim(spec: Spec, inputs: Dict[str, Any], seconds: float,
                 tally: Tally, yardstick: Yardstick) -> Dict[str, Any]:
    unit = [(spec.kind, inputs)]
    samples: Dict[str, List[float]] = {"wall_s": [], "events_per_s": []}
    raw_walls = []
    reference = None
    result = None
    started = time.perf_counter()
    while True:
        try:
            began = time.perf_counter()
            (result,) = run_units(unit)
            # A repeat pays for collecting the network it built.  Left
            # to the generational collector that happens somewhere in a
            # later repeat, and peak_rss_mb reads two networks or one
            # depending on how many repeats the run had time for.
            gc.collect()
            raw = time.perf_counter() - began
        except Exception:
            tally.check(False, "repeat raised:\n" + traceback.format_exc())
        else:
            mark = fingerprint(result)
            reference = reference or mark
            tally.check(mark == reference,
                        "fingerprint differs between repeats")
            wall = raw * yardstick.factor()
            raw_walls.append(raw)
            samples["wall_s"].append(wall)
            samples["events_per_s"].append(result.events_processed / wall)
        if time.perf_counter() - started >= seconds:
            break
    return {"samples": samples, "raw_wall_s": raw_walls,
            "result": result, "reference": reference,
            "events": result.events_processed if result is not None else 0}


def _check_sim(spec: Spec, inputs: Dict[str, Any], scale: str,
               measured: Dict[str, Any], tally: Tally) -> None:
    """Sanity bands, then the reference-engine oracle."""
    if measured["result"] is None:
        return
    for label, held in sanity_checks(spec, scale, [measured["result"]]):
        tally.check(held, f"sanity band violated: {label}")
    # Oracle that survives legitimate behaviour changes, unlike a
    # committed golden: the unoptimized engine must agree.
    try:
        (oracle,) = run_units([(spec.kind, inputs)], optimize=False)
        tally.check(fingerprint(oracle) == measured["reference"],
                    "reference engine (optimize=False) disagrees")
    except Exception:
        tally.check(False, "reference run raised:\n" + traceback.format_exc())


def check_sweep_pass(done: SweepPass, executor: str, cells: int,
                     reference: Optional[Dict[str, str]],
                     tally: Tally) -> Dict[str, str]:
    """Count one CLI pass's operations; returns the reference marks.

    Exit code, every cell, and per-cell fingerprint identity with the
    first pass seen (``reference``; this pass's own when there is none).
    """
    tally.check(done.exit_code == 0,
                f"{executor} pass exited {done.exit_code}")
    tally.count(cells, cells - len(done.cells),
                f"cell not ok in {executor} pass")
    marks = done.fingerprints
    reference = reference or marks
    tally.check(marks == reference,
                f"{executor} pass: per-cell fingerprints differ")
    return reference


def _measure_sweep(inputs: Dict[str, Any], seconds: float,
                   tally: Tally, yardstick: Yardstick) -> Dict[str, Any]:
    cells = grid_cells(inputs)
    samples: Dict[str, List[float]] = {
        name: [] for name in ("wall_s", "events_per_s",
                              *(f"cells_per_s_{p}" for p in E2E_PASSES))}
    raw_walls = []
    reference = None
    events = 0
    repeat = 0
    started = time.perf_counter()
    with scratch_dir() as scratch:
        while True:
            # Rotate which executor goes first so none always inherits
            # the same predecessor's page cache and worker teardown.
            shift = repeat % len(E2E_PASSES)
            passes = {}
            walls = {}
            for executor in E2E_PASSES[shift:] + E2E_PASSES[:shift]:
                try:
                    done = run_sweep_pass(inputs, executor, scratch)
                except Exception:
                    tally.check(False, f"{executor} pass raised:\n"
                                + traceback.format_exc())
                    continue
                reference = check_sweep_pass(done, executor, cells,
                                             reference, tally)
                passes[executor] = done
                walls[executor] = done.wall_s * yardstick.factor()
            if len(passes) == len(E2E_PASSES):
                # One repeat is the three passes together.
                wall = sum(walls.values())
                events = sum(done.events for done in passes.values())
                raw_walls.append(sum(done.wall_s for done in passes.values()))
                samples["wall_s"].append(wall)
                samples["events_per_s"].append(events / wall)
                for executor in passes:
                    samples[f"cells_per_s_{executor}"].append(
                        cells / walls[executor])
            repeat += 1
            if time.perf_counter() - started >= seconds:
                break
    return {"samples": samples, "raw_wall_s": raw_walls, "events": events}


def run_e2e(spec: Spec, seed: int, seconds: float,
            scale: str = "full") -> Outcome:
    """One end-to-end run of ``spec``; raises if nothing could be timed."""
    tally = Tally()
    inputs = make_inputs(spec, seed, scale)
    warm_up(spec, seed)
    yardstick = Yardstick()
    if spec.kind == "sweep":
        measured = _measure_sweep(inputs, seconds, tally, yardstick)
    else:
        measured = _measure_sim(spec, inputs, seconds, tally, yardstick)
    samples = measured["samples"]
    if not samples["wall_s"]:
        raise RuntimeError("no repeat completed:\n" + "\n".join(tally.reasons))

    # Sampled before the probes and the reference run, so neither a
    # probe interpreter nor the unoptimized engine can set the maximum.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec.kind == "sweep":
        # Plus the largest worker a pass spawned.
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    samples["setup_s"] = probe_setup(
        spec, seed, 1 if scale == "smoke" else SETUP_PROBES, tally, yardstick)
    if spec.kind != "sweep":
        _check_sim(spec, inputs, scale, measured, tally)

    # Gated metrics only; sweep_grid's per-executor rates stay in the
    # samples, for --detail and the ledger.
    metrics = {name: stats.median(samples[name])
               for name in ("setup_s", "wall_s", "events_per_s")}
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    detail = {
        "workload": spec.name, "seed": seed, "scale": scale,
        "seconds": seconds, "params_hash": params_hash(inputs),
        "inputs": inputs, "events_per_repeat": measured["events"],
        "samples": samples,
        "raw_wall_s": measured["raw_wall_s"],
        "yardstick_s": yardstick.passes,
        "summary": {name: stats.summary(values)
                    for name, values in samples.items()},
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_share": tally.failed / tally.attempted,
        "failures": tally.reasons,
    }
    return Outcome(metrics=metrics, tally=tally, detail=detail)
