"""Engine-throughput benchmark with a JSON perf-trajectory artifact.

``repro bench --engine`` times the Figure-1 scenario on each engine arm,
verifies the arms agree bit-for-bit, and writes the timings to a
``BENCH_engine.json`` artifact.  The artifact keeps a ``runs`` history,
so successive invocations (CI, before/after an optimization) accumulate
a performance trajectory instead of overwriting each other.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "run_engine_benchmark",
    "DEFAULT_ENGINE_OUTPUT",
    "DEFAULT_ENGINE_PARAMS",
]

DEFAULT_ENGINE_OUTPUT = "BENCH_engine.json"

#: The engine-throughput scenario: a Figure-1-shaped long-lived-flow run
#: sized so one repetition takes under a second on commodity hardware.
DEFAULT_ENGINE_PARAMS: Dict[str, Any] = dict(
    n_flows=16, buffer_packets=40, pipe_packets=80.0,
    bottleneck_rate="10Mbps", warmup=4.0, duration=8.0, seed=3,
)


def _result_fingerprint(result: Any, strip_metrics: bool = False) -> str:
    """Canonical JSON of one cell result, for cross-run comparison.

    ``strip_metrics`` drops the observability snapshot before encoding —
    an obs-enabled run attaches it by design, so obs-on/off identity is
    judged on everything else.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        result = dataclasses.asdict(result)
    if strip_metrics and isinstance(result, dict):
        result = dict(result)
        result.pop("metrics", None)
    return json.dumps(result, sort_keys=True, default=repr)


#: The four benchmark arms, in interleave order.  Each arm fully
#: specifies its engine so the others' optimizations cannot leak in:
#: ``unoptimized`` turns off lazy timers, compaction, packet pooling
#: *and* the structural fast paths (``fastpath=False`` routes packets
#: through the canonical ``Queue.enqueue``/idle-callback chain instead
#: of the inlined cut-through and back-to-back shortcuts), so it times
#: what it claims: the reference engine, not a half-optimized hybrid.
#: ``noburst`` keeps every other optimization but disables the burst
#: departure fast path, so the A/B isolates what coalescing buys.
_ENGINE_ARMS: Sequence[Any] = (
    ("heap", dict(optimize=True, engine_opts=None)),
    ("calendar", dict(optimize=True, engine_opts={"scheduler": "calendar"})),
    ("noburst", dict(optimize=True, engine_opts={"burst": False})),
    ("unoptimized", dict(optimize=False, engine_opts=None)),
)

#: Engine-option variants every identity scenario must agree across:
#: both scheduler backends, each with bursting on and off.
_IDENTITY_VARIANTS: Sequence[Any] = (
    ("heap+burst", None),
    ("heap", {"burst": False}),
    ("calendar+burst", {"scheduler": "calendar"}),
    ("calendar", {"scheduler": "calendar", "burst": False}),
)

#: Cheap cross-backend identity scenarios run once per backend on top
#: of the timed Figure-1 arms: a Figure-7-shaped sweep cell and a
#: Poisson short-flow run.  Together with Figure 1 they are the
#: bit-identical acceptance set for the calendar backend.
_FIGURE7_IDENTITY_PARAMS: Dict[str, Any] = dict(
    n_flows=8, buffer_packets=18, pipe_packets=50.0,
    bottleneck_rate="10Mbps", warmup=2.0, duration=4.0, seed=1,
)
_SHORT_FLOW_IDENTITY_PARAMS: Dict[str, Any] = dict(
    load=0.7, buffer_packets=64, flow_packets=14,
    bottleneck_rate="10Mbps", rtt="40ms", warmup=2.0, duration=6.0, seed=2,
)


def _identity_scenarios() -> Dict[str, Any]:
    """name -> callable(engine_opts) returning a result fingerprint."""
    from repro.experiments.common import (
        run_long_flow_experiment,
        run_short_flow_experiment,
    )
    from repro.traffic.sizes import FixedSize

    def figure7(engine_opts: Optional[Dict[str, Any]],
                strip_metrics: bool = False) -> str:
        return _result_fingerprint(run_long_flow_experiment(
            engine_opts=engine_opts, **_FIGURE7_IDENTITY_PARAMS),
            strip_metrics=strip_metrics)

    def short_flows(engine_opts: Optional[Dict[str, Any]],
                    strip_metrics: bool = False) -> str:
        params = dict(_SHORT_FLOW_IDENTITY_PARAMS)
        sizes = FixedSize(params.pop("flow_packets"))
        return _result_fingerprint(run_short_flow_experiment(
            sizes=sizes, engine_opts=engine_opts, **params),
            strip_metrics=strip_metrics)

    return {"figure7": figure7, "short_flows": short_flows}


def run_engine_benchmark(
    params: Optional[Dict[str, Any]] = None,
    repeats: int = 3,
    baseline_events_per_second: Optional[float] = None,
    baseline_details: Optional[Dict[str, Any]] = None,
    regression_tolerance: float = 0.3,
    calendar_target_factor: float = 0.85,
    output_path: Optional[str] = DEFAULT_ENGINE_OUTPUT,
) -> Dict[str, Any]:
    """Engine throughput: heap vs calendar backends vs the reference.

    Runs the Figure-1-shaped scenario ``repeats`` times in each of four
    arms (after one discarded warmup run per arm) and keeps the
    *minimum* wall time — the measurement least disturbed by scheduler
    noise.  The arms are interleaved (heap, calendar, noburst,
    unoptimized, heap, ...) so slow machine phases hit all of them
    equally and the ratios stay honest:

    * ``heap`` — the optimized engine on the binary-heap backend
      (burst departures on, like every optimized arm by default);
    * ``calendar`` — the optimized engine on the calendar-queue
      backend, bucket width auto-sized from the timer horizon;
    * ``noburst`` — the optimized heap engine with the burst departure
      fast path disabled, isolating what coalescing buys;
    * ``unoptimized`` — the reference engine with *every* optimization
      off, including the structural fast paths (see ``_ENGINE_ARMS``).

    All four arms must produce bit-identical results on Figure 1; the
    backends are additionally checked on a Figure-7-shaped cell and a
    short-flow scenario, each across both schedulers with bursting on
    and off plus an obs-enabled run (metrics snapshot stripped).
    ``identical_results`` is the conjunction; ``identity_scenarios``
    has the per-scenario verdicts.

    ``baseline_events_per_second`` is a committed floor for the heap
    backend (see ``ci/engine-baseline.json``): the benchmark is flagged
    as a regression when heap throughput falls more than
    ``regression_tolerance`` (default 30%) below it.  The calendar
    backend is additionally held to ``calendar_target_factor`` (default
    0.85x) of the same baseline — near-parity with the heap backend now
    that the baseline itself is a burst-mode rate.

    Returns the benchmark record; when ``output_path`` is set it is also
    appended to the artifact's run history.
    """
    from repro.experiments.common import run_long_flow_experiment

    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if not 0.0 <= regression_tolerance < 1.0:
        raise ConfigurationError(
            f"regression_tolerance must be in [0, 1), got {regression_tolerance}")
    if calendar_target_factor <= 0.0:
        raise ConfigurationError(
            f"calendar_target_factor must be > 0, got {calendar_target_factor}")
    params = dict(DEFAULT_ENGINE_PARAMS, **(params or {}))

    stats_for: Dict[str, Dict[str, Any]] = {label: {} for label, _ in _ENGINE_ARMS}
    best: Dict[str, float] = {label: math.inf for label, _ in _ENGINE_ARMS}
    fingerprint: Dict[str, Optional[str]] = {}
    for _, arm in _ENGINE_ARMS:
        run_long_flow_experiment(**arm, **params)  # warmup
    for _ in range(repeats):
        for label, arm in _ENGINE_ARMS:
            stats = stats_for[label]

            def capture(sim, stats=stats) -> None:
                stats["events_processed"] = sim.events_processed
                stats["peak_heap_size"] = sim.peak_heap_size
                stats["compactions"] = sim.compactions
                stats["ladder_spills"] = sim.ladder_spills
                stats["peak_bucket_occupancy"] = sim.peak_bucket_occupancy
                stats["burst_steps"] = sim.burst_steps
                stats["events_popped"] = sim.events_popped
                stats["bucket_width"] = sim.bucket_width
                stats["calendar_fallback"] = sim.calendar_fallback

            started = time.perf_counter()
            result = run_long_flow_experiment(
                on_sim=capture, **arm, **params)
            best[label] = min(best[label], time.perf_counter() - started)
            fingerprint[label] = _result_fingerprint(result)

    modes: Dict[str, Dict[str, Any]] = {}
    for label, _ in _ENGINE_ARMS:
        stats = stats_for[label]
        events = stats.get("events_processed", 0)
        seconds = best[label]
        modes[label] = {
            "seconds": seconds,
            "events_processed": events,
            "events_per_second": events / seconds if seconds > 0 else math.nan,
            "peak_heap_size": stats.get("peak_heap_size", 0),
            "compactions": stats.get("compactions", 0),
            "ladder_spills": stats.get("ladder_spills", 0),
            "peak_bucket_occupancy": stats.get("peak_bucket_occupancy", 0),
            "burst_steps": stats.get("burst_steps", 0),
            "events_popped": stats.get("events_popped", 0),
            "bucket_width": stats.get("bucket_width"),
            "calendar_fallback": stats.get("calendar_fallback", False),
            "fingerprint": fingerprint.get(label),
        }

    heap, cal, noburst, unopt = (modes["heap"], modes["calendar"],
                                 modes["noburst"], modes["unoptimized"])
    identity: Dict[str, bool] = {
        "figure1": (heap["fingerprint"] is not None
                    and heap["fingerprint"] == cal["fingerprint"]
                    and heap["fingerprint"] == noburst["fingerprint"]
                    and heap["fingerprint"] == unopt["fingerprint"]),
    }
    # Cross-backend / burst-on-off identity on the other acceptance
    # scenarios (one run per variant; the engine-mode equivalence on
    # Figure 1 is already covered above), plus an obs-enabled arm per
    # scenario — tracing must not perturb what the simulation computes.
    from repro import obs as _obs_mod
    for name, scenario in _identity_scenarios().items():
        prints = [scenario(engine_opts) for _, engine_opts in
                  _IDENTITY_VARIANTS]
        identity[name] = all(p == prints[0] for p in prints[1:])
        _obs_mod.enable()
        try:
            traced = scenario(None, strip_metrics=True)
        finally:
            _obs_mod.disable()
        identity[name + "+obs"] = (traced == scenario(None,
                                                      strip_metrics=True))
    identical = all(identity.values())

    events_per_second = heap["events_per_second"]
    speedup = (events_per_second / unopt["events_per_second"]
               if unopt["events_per_second"] else math.nan)
    calendar_speedup = (cal["events_per_second"] / events_per_second
                        if events_per_second else math.nan)
    burst_speedup = (events_per_second / noburst["events_per_second"]
                     if noburst["events_per_second"] else math.nan)
    coalescing = (heap["events_processed"] / heap["events_popped"]
                  if heap["events_popped"] else math.nan)
    record: Dict[str, Any] = {
        "benchmark": "engine",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scenario": "long-lived flows (Figure 1)",
        "params": params,
        "repeats": repeats,
        "events_processed": heap["events_processed"],
        "events_per_second": events_per_second,
        "seconds": heap["seconds"],
        "unoptimized": {k: unopt[k] for k in
                        ("seconds", "events_processed",
                         "events_per_second", "peak_heap_size")},
        "speedup_vs_unoptimized": speedup,
        "peak_heap_size": heap["peak_heap_size"],
        "compactions": heap["compactions"],
        # Burst census: events-equivalent processed vs backend pops.
        # ``packets_processed`` counts virtual packet events handled in
        # burst drains; the coalescing ratio is how many events each
        # backend pop amortizes.
        "events_popped": heap["events_popped"],
        "packets_processed": heap["burst_steps"],
        "coalescing_ratio": coalescing,
        "speedup_vs_noburst": burst_speedup,
        "noburst": {k: noburst[k] for k in
                    ("seconds", "events_processed",
                     "events_per_second", "peak_heap_size")},
        "schedulers": {
            "heap": {k: heap[k] for k in
                     ("seconds", "events_per_second",
                      "peak_heap_size", "compactions",
                      "events_popped", "burst_steps")},
            "calendar": dict(
                {k: cal[k] for k in
                 ("seconds", "events_per_second",
                  "peak_heap_size", "compactions",
                  "ladder_spills", "peak_bucket_occupancy",
                  "events_popped", "burst_steps",
                  "bucket_width", "calendar_fallback")},
                speedup_vs_heap=calendar_speedup),
        },
        "identity_scenarios": identity,
        "identical_results": identical,
    }
    if baseline_events_per_second is not None:
        floor = baseline_events_per_second * (1.0 - regression_tolerance)
        record["baseline_events_per_second"] = baseline_events_per_second
        record["speedup_vs_baseline"] = (
            events_per_second / baseline_events_per_second
            if baseline_events_per_second else math.nan)
        if baseline_details:
            # Provenance of the comparison point (e.g. the pre-PR
            # commit and how it was measured) travels with the record.
            record["baseline_details"] = baseline_details
        record["regression_floor"] = floor
        record["meets_baseline"] = events_per_second >= floor
        calendar_target = baseline_events_per_second * calendar_target_factor
        record["calendar_target"] = calendar_target
        record["calendar_meets_target"] = (
            cal["events_per_second"] >= calendar_target)
    if output_path:
        _append_to_artifact(output_path, record)
    return record


def _append_to_artifact(path: str, record: Dict[str, Any]) -> None:
    """Append ``record`` to the artifact's run history, atomically."""
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                previous = json.load(fh)
            runs = list(previous.get("runs", []))
        except (OSError, ValueError):
            runs = []  # a corrupt artifact restarts the trajectory
    runs.append(record)
    payload = {"version": 1, "latest": record, "runs": runs}
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".bench.tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
