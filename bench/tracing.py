"""Traced run: where the time goes, layer by layer.

A separate invocation (``--trace 1``) whose numbers never feed the
end-to-end metrics.  Four parts, all recorded from this package:

* **Phase spans** — the once-per-run callables the experiment runners
  call (``build_dumbbell``, the workload constructors, ``Simulator.run``,
  ``verify_network``, ``SweepSupervisor.run_cell``, ``repro.cli.main``)
  are rebound to span-recording wrappers for the traced run only and
  restored afterwards.  One extra frame per *run* distorts nothing.
* **Census** — engine counters through ``on_sim``, protocol counters
  from the result objects, pool counters from ``pool_stats()``.
* **Ablation arms** — the same units with exactly one engine knob
  flipped, interleaved with the default arm round by round, every arm's
  fingerprint checked against the default's.
* **Event-loop attribution** — one pass under ``cProfile``, ``tottime``
  rolled up by ``repro.<package>``, builtin and stdlib time charged to
  the calling package through the pstats caller table.
"""

from __future__ import annotations

import cProfile
import contextlib
import functools
import gc
import json
import os
import pstats
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench import stats
from bench.e2e import Outcome, Tally, check_sweep_pass, warm_up
from bench.workloads import (
    E2E_PASSES,
    Spec,
    Unit,
    fingerprint,
    grid_cells,
    make_inputs,
    params_hash,
    run_sweep_pass,
    run_units,
    scratch_dir,
)

#: Layer = package name under ``src/repro``; the eight the issue tracks.
LAYERS = ("sim", "net", "tcp", "traffic", "metrics", "runner",
          "experiments", "obs")

#: arm -> (metric, optimize, engine_opts).  Each flips exactly one knob
#: against the default engine.  ``fastpath`` necessarily takes ``burst``
#: with it (the burst drain rides on the inlined path); ``pool`` is
#: ``optimize=False`` — which also scopes the packet pool off — with
#: every engine flag restored.
ARMS: Dict[str, Tuple[str, bool, Optional[Dict[str, Any]]]] = {
    "lazy_timers": ("sim.knob.lazy_timers.cost_ratio", True,
                    {"lazy_timers": False}),
    "compaction": ("sim.knob.compaction.cost_ratio", True,
                   {"compaction": False}),
    "calendar": ("sim.knob.calendar.cost_ratio", True,
                 {"scheduler": "calendar"}),
    "burst": ("net.knob.burst.cost_ratio", True, {"burst": False}),
    "fastpath": ("net.knob.fastpath.cost_ratio", True, {"fastpath": False}),
    "pool": ("net.knob.pool.cost_ratio", False,
             {"lazy_timers": True, "compaction": True, "fastpath": True}),
    "reference": ("sim.reference.cost_ratio", False, None),
    "obs": ("obs.tax_ratio", True, None),
}
#: long_n1024 costs ~9 s a run: only the arms the "one engine path"
#: decision needs at large n.  Unmeasured ratios are reported as 0.
ARMS_OF = {"long_n1024": ("calendar", "burst", "reference")}

SWEEP_ONLY = ("runner.cell_overhead_ms", "fabric.cell_overhead_ms",
              "runner.jobs2_efficiency", "fabric.workers2_efficiency",
              "cli.sweep_s", "runner.cell_s",
              *(f"cells_per_s_{executor}" for executor in E2E_PASSES))
SHORT_ONLY = ("traffic.flows_completed", "metrics.afct_s")

SPAN_OF_METRIC = {
    "net.build_s": "net.build", "traffic.build_s": "traffic.build",
    "sim.run_s": "sim.run", "runner.verify_s": "runner.verify",
    "experiments.run_s": "experiments.run",
}


class SpanRecorder:
    """In-memory spans: ``{name, id, parent, run_id, start, end}``.

    ``parent`` is the id of the span open when this one began (``None``
    for a root); spans of one run (one arm of one round, or one CLI
    pass) share ``run_id``.  Times are seconds since the recorder was
    made.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.runs: Dict[int, Dict[str, Any]] = {}
        self.run_id = 0
        self._stack: List[int] = []
        self._epoch = time.perf_counter()

    def new_run(self, **labels: Any) -> int:
        self.run_id += 1
        self.runs[self.run_id] = labels
        return self.run_id

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record = {"name": name, "id": len(self.spans) + 1,
                  "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id,
                  "start": time.perf_counter() - self._epoch, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._epoch

    def wrap(self, fn: Callable[..., Any], name: str,
             keep: Optional[List[Any]] = None) -> Callable[..., Any]:
        """``fn`` inside a span; ``keep`` collects what it returns."""
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                value = fn(*args, **kwargs)
            if keep is not None:
                keep.append(value)
            return value
        return traced

    def totals(self, run_id: int) -> Dict[str, float]:
        """Per span name: total duration and total self time in a run.

        Self time is a span's duration minus its direct children's.
        """
        mine = [s for s in self.spans if s["run_id"] == run_id]
        child_time: Dict[int, float] = defaultdict(float)
        for s in mine:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: Dict[str, float] = defaultdict(float)
        for s in mine:
            duration = s["end"] - s["start"]
            out[s["name"]] += duration
            out[s["name"] + ":self"] += duration - child_time[s["id"]]
        return out


@contextlib.contextmanager
def phase_spans(rec: SpanRecorder) -> Iterator[List[Any]]:
    """Rebind the once-per-run callables to span wrappers; restore after.

    Yields the list the short-flow workloads built meanwhile are kept in
    (the traced run reads the completed flows' RTO counts off them).
    """
    import repro.cli
    import repro.experiments.common as common
    from repro.runner.supervisor import SweepSupervisor
    from repro.sim import Simulator
    from repro.traffic import ShortFlowWorkload

    workloads: List[Any] = []
    targets = [
        (common, "build_dumbbell", "net.build", None),
        (common, "LongLivedWorkload", "traffic.build", None),
        (ShortFlowWorkload, "for_load", "traffic.build", workloads),
        (common, "verify_network", "runner.verify", None),
        (Simulator, "run", "sim.run", None),
        (SweepSupervisor, "run_cell", "runner.cell", None),
        (repro.cli, "main", "cli.sweep", None),
    ]
    saved = [(owner, name, vars(owner)[name]) for owner, name, _, _ in targets]
    try:
        for (owner, name, span, keep), (_, _, raw) in zip(targets, saved):
            if isinstance(raw, classmethod):
                setattr(owner, name,
                        classmethod(rec.wrap(raw.__func__, span, keep)))
            else:
                setattr(owner, name, rec.wrap(raw, span, keep))
        yield workloads
    finally:
        for owner, name, raw in saved:
            setattr(owner, name, raw)


def unmeasured(spec: Spec) -> List[str]:
    """Per-layer metrics that do not exist on ``spec`` and read 0 there."""
    arms = ARMS_OF.get(spec.name, tuple(ARMS))
    names = [metric for arm, (metric, _, _) in ARMS.items() if arm not in arms]
    if "obs" not in arms:
        names.append("obs.events_recorded")
    if spec.kind != "sweep":
        names.extend(SWEEP_ONLY)
    if spec.kind != "short":
        names.extend(SHORT_ONLY)
    return names


# ----------------------------------------------------------------------
# cProfile roll-up
# ----------------------------------------------------------------------
def _layer_of(filename: str) -> Optional[str]:
    marker = "/src/repro/"
    at = filename.replace(os.sep, "/").rfind(marker)
    if at < 0:
        return None
    head = filename[at + len(marker):].split("/")[0]
    return head[:-3] if head.endswith(".py") else head


def rollup(profile_stats: Dict[Any, Any]) -> Tuple[Dict[str, float],
                                                   Dict[str, int]]:
    """``(share of tottime, calls)`` per layer from a pstats table.

    A function in ``src/repro/<pkg>/`` is charged to ``<pkg>``.  Any
    other function (builtins, heapq, random, ...) is charged to whoever
    called it, split by the per-caller ``tottime`` pstats keeps; callers
    that are themselves foreign are resolved the same way, recursively.
    Time with no repro caller at all (this package's own frames) lands
    in ``"other"``.
    """
    resolved: Dict[Any, Dict[str, float]] = {}

    def owners(func: Any, depth: int = 0) -> Dict[str, float]:
        layer = _layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in resolved:
            return resolved[func]
        resolved[func] = {"other": 1.0}  # cycle guard while resolving
        callers = profile_stats.get(func, (0, 0, 0, 0, {}))[4]
        weights = {c: entry[3] for c, entry in callers.items()}
        total = sum(weights.values())
        if depth < 16 and total > 0:
            mix: Dict[str, float] = defaultdict(float)
            for caller, weight in weights.items():
                for layer, part in owners(caller, depth + 1).items():
                    mix[layer] += part * weight / total
            resolved[func] = dict(mix)
        return resolved[func]

    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_, ncalls, tottime, _, callers) in profile_stats.items():
        layer = _layer_of(func[0])
        if layer is not None:
            seconds[layer] += tottime
            calls[layer] += ncalls
        elif callers:
            for caller, entry in callers.items():
                for owner, part in owners(caller).items():
                    seconds[owner] += entry[2] * part
        else:
            seconds["other"] += tottime
    total = sum(seconds.values())
    shares = {layer: seconds[layer] / total for layer in seconds}
    return shares, dict(calls)


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------
class Census:
    """Engine and pool counters, summed over the units of one arm."""

    def __init__(self) -> None:
        from repro.net.packet import pool_stats
        self._pool_stats = pool_stats
        self._pool = pool_stats()
        self.counts: Counter = Counter()
        self.peak_heap_size = 0

    def harvest(self, sim: Any) -> None:
        """The ``on_sim`` callback: runs once, after ``Simulator.run``."""
        counts = self.counts
        counts["events_processed"] += sim.events_processed
        counts["events_popped"] += sim.events_popped
        counts["burst_steps"] += sim.burst_steps
        counts["compactions"] += sim.compactions
        counts["lazy_deferrals"] += sim.lazy_deferrals
        self.peak_heap_size = max(self.peak_heap_size, sim.peak_heap_size)
        pool = self._pool_stats()  # lifetime counters: take the delta
        counts["pool_acquired"] += pool["acquired"] - self._pool["acquired"]
        counts["pool_reused"] += pool["reused"] - self._pool["reused"]
        self._pool = pool


def _protocol_census(results: List[Any], short_flow_timeouts: int,
                     obs_counters: Dict[str, float]) -> Dict[str, float]:
    """Simulated statistics of the default arm (recorded, not gated).

    ``ShortFlowResult`` carries neither RTO nor fast-retransmit counts:
    the former come from the completed flows' records, the latter from
    the obs arm's snapshot.
    """
    short = [r for r in results if hasattr(r, "afct")]
    long_ = [r for r in results if not hasattr(r, "afct")]
    timeouts = sum(r.timeouts for r in long_) + short_flow_timeouts
    fast_rtx = sum(r.fast_retransmits for r in long_)
    if short:
        fast_rtx += int(obs_counters.get("tcp.fast_retransmits", 0))
    losses = [r.loss_rate for r in long_] + [r.drop_rate for r in short]
    return {
        "tcp.timeouts": timeouts,
        "tcp.fast_retransmits": fast_rtx,
        "traffic.flows_completed": sum(r.n_completed for r in short),
        "metrics.afct_s": stats.median([r.afct for r in short]) if short else 0.0,
        "net.loss_rate": sum(losses) / len(losses),
        "net.utilization": sum(r.utilization for r in results) / len(results),
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
class _TracedRun:
    """State shared by the arms of one traced run."""

    def __init__(self, rec: SpanRecorder, tally: Tally,
                 workloads: List[Any]) -> None:
        self.rec = rec
        self.tally = tally
        self.workloads = workloads  # filled by the for_load wrapper
        self.walls: Dict[str, List[float]] = defaultdict(list)
        self.run_ids: Dict[str, List[int]] = defaultdict(list)
        self.reference: Optional[List[str]] = None
        self.census: Optional[Census] = None
        self.default_results: List[Any] = []
        self.short_flow_timeouts = 0
        self.obs_counters: Dict[str, float] = {}
        self.obs_events = 0

    def arm(self, name: str, units: List[Unit], round_no: int,
            profiler: Optional[cProfile.Profile] = None) -> float:
        """Run ``units`` under one arm; returns the wall time."""
        from repro import obs

        _, optimize, engine_opts = ARMS.get(name, ("", True, None))
        run_id = self.rec.new_run(arm=name, round=round_no)
        census = Census()
        del self.workloads[:]
        results: List[Any] = []
        gc.collect()
        if name == "obs":
            obs.enable()
        try:
            if profiler is not None:
                profiler.enable()
            started = time.perf_counter()
            for unit in units:
                with self.rec.span("experiments.run"):
                    results += run_units([unit], optimize, engine_opts,
                                         on_sim=census.harvest)
            wall = time.perf_counter() - started
            if profiler is not None:
                profiler.disable()
            if name == "obs":
                self.obs_events = obs.recorder().recorded
                self.obs_counters = results[-1].metrics["counters"]
        finally:
            if name == "obs":
                obs.disable()
        marks = [fingerprint(result) for result in results]
        if self.reference is None:
            self.reference = marks
        self.tally.check(marks == self.reference,
                         f"arm {name!r}: fingerprint differs from default")
        if name == "default":
            self.census = census
            self.default_results = results
            self.short_flow_timeouts = sum(
                record.timeouts for workload in self.workloads
                for record in workload.on_complete.records)
        self.walls[name].append(wall)
        self.run_ids[name].append(run_id)
        return wall


def _sweep_passes(run: _TracedRun, inputs: Dict[str, Any], scratch: str,
                  round_no: int) -> List[Unit]:
    """One traced pass per executor; returns the cells as units."""
    cells = grid_cells(inputs)
    units: List[Unit] = []
    first = None
    for executor in ("serial", "jobs2", "workers1", "workers2"):
        run_id = run.rec.new_run(arm=f"cli:{executor}", round=round_no)
        gc.collect()
        done = run_sweep_pass(inputs, executor, scratch)
        first = check_sweep_pass(done, executor, cells, first, run.tally)
        run.walls[f"cli:{executor}"].append(done.wall_s)
        run.run_ids[f"cli:{executor}"].append(run_id)
        if executor == "serial":
            units = done.units()
            if run.reference is None:
                # The in-process loop must reproduce the checkpoint.
                run.reference = list(done.fingerprints.values())
    return units


def run_traced(spec: Spec, seed: int, seconds: float, scale: str,
               spans_out: str) -> Outcome:
    """The traced run of ``spec``: per-layer metrics and the span file."""
    tally = Tally()
    rec = SpanRecorder()
    inputs = make_inputs(spec, seed, scale)
    arms = ARMS_OF.get(spec.name, tuple(ARMS))
    warm_up(spec, seed)

    started = time.perf_counter()
    with scratch_dir() as scratch, phase_spans(rec) as workloads:
        run = _TracedRun(rec, tally, workloads)
        units: List[Unit] = [(spec.kind, inputs)]
        ratios: Dict[str, List[float]] = defaultdict(list)
        round_no = 0
        while True:
            if spec.kind == "sweep":
                units = _sweep_passes(run, inputs, scratch, round_no)
            # Rotate who goes first: the arm that follows the CLI passes
            # (or a big arm's garbage) must not always be the default.
            order = ("default",) + arms
            shift = round_no % len(order)
            walls = {name: run.arm(name, units, round_no)
                     for name in order[shift:] + order[:shift]}
            for name in arms:
                ratios[name].append(walls[name] / walls["default"])
            round_no += 1
            if time.perf_counter() - started >= seconds:
                break
        # The profiled pass goes last so it cannot disturb an arm's timing.
        profiler = cProfile.Profile()
        profiled_wall = run.arm("profiled", units, round_no, profiler)
    shares, calls = rollup(pstats.Stats(profiler).stats)

    metrics = _metrics(spec, run, shares, calls, profiled_wall,
                       grid_cells(inputs) if spec.kind == "sweep" else 0)
    share_sum = sum(metrics[f"{layer}.self_share"] for layer in LAYERS)
    tally.check(abs(share_sum - 1.0) <= 0.02,
                f"layer self_share sum {share_sum:.4f} outside 1 +- 0.02")
    metrics["bench.fail_share"] = tally.failed / tally.attempted

    os.makedirs(os.path.dirname(os.path.abspath(spans_out)), exist_ok=True)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump({"workload": spec.name, "seed": seed, "scale": scale,
                   "runs": rec.runs, "spans": rec.spans}, fh)
    detail = {
        "workload": spec.name, "seed": seed, "scale": scale,
        "seconds": seconds, "params_hash": params_hash(inputs),
        "inputs": inputs, "rounds": round_no, "spans_file": spans_out,
        "arm_wall_s": {name: stats.summary(walls)
                       for name, walls in run.walls.items()},
        "arm_cost_ratio_per_round": {name: stats.summary(values)
                                     for name, values in ratios.items()},
        "unmeasured": unmeasured(spec),
        "self_share_other": shares.get("other", 0.0),
        "self_share_sum": share_sum,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.reasons,
    }
    return Outcome(metrics=metrics, tally=tally, detail=detail)


def _metrics(spec: Spec, run: _TracedRun,
             shares: Dict[str, float], calls: Dict[str, int],
             profiled_wall: float, cells: int) -> Dict[str, float]:
    """Every ``per_layer`` metric of BENCHMARK.json; 0 = not measured here."""
    default_wall = stats.median(run.walls["default"])
    totals: Dict[int, Dict[str, float]] = {}

    def phase(span: str, run_ids: List[int]) -> float:
        for run_id in run_ids:
            if run_id not in totals:
                totals[run_id] = run.rec.totals(run_id)
        return stats.median([totals[run_id][span] for run_id in run_ids])

    default_runs = run.run_ids["default"]
    metrics: Dict[str, float] = {
        metric: phase(span, default_runs)
        for metric, span in SPAN_OF_METRIC.items()}
    metrics["experiments.self_s"] = phase("experiments.run:self", default_runs)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = shares.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)

    assert run.census is not None
    counts = run.census.counts
    for name in ("events_processed", "events_popped", "burst_steps",
                 "compactions", "lazy_deferrals"):
        metrics[f"sim.{name}"] = counts[name]
    metrics["sim.peak_heap_size"] = run.census.peak_heap_size
    metrics["sim.coalescing_ratio"] = (
        counts["events_processed"] / counts["events_popped"])
    metrics["sim.us_per_event"] = (
        1e6 * metrics["sim.run_s"] / counts["events_processed"])
    metrics["net.pool_reuse_ratio"] = (
        counts["pool_reused"] / counts["pool_acquired"])
    metrics.update(_protocol_census(run.default_results,
                                    run.short_flow_timeouts,
                                    run.obs_counters))

    for name, walls in run.walls.items():
        if name in ARMS:
            metrics[ARMS[name][0]] = stats.median(walls) / default_wall
    metrics["obs.events_recorded"] = run.obs_events

    if cells:
        wall = {executor: stats.median(run.walls[f"cli:{executor}"])
                for executor in ("serial", "jobs2", "workers1", "workers2")}
        metrics["runner.cell_overhead_ms"] = (
            1e3 * (wall["serial"] - default_wall) / cells)
        metrics["fabric.cell_overhead_ms"] = (
            1e3 * (wall["workers1"] - default_wall) / cells)
        metrics["runner.jobs2_efficiency"] = default_wall / (2 * wall["jobs2"])
        metrics["fabric.workers2_efficiency"] = (
            default_wall / (2 * wall["workers2"]))
        for executor in E2E_PASSES:
            metrics[f"cells_per_s_{executor}"] = cells / wall[executor]
        serial_runs = run.run_ids["cli:serial"]
        metrics["cli.sweep_s"] = phase("cli.sweep", serial_runs)
        metrics["runner.cell_s"] = phase("runner.cell", serial_runs)
    metrics["bench.trace_overhead_ratio"] = profiled_wall / default_wall
    for name in unmeasured(spec):
        metrics.setdefault(name, 0.0)
    return metrics
