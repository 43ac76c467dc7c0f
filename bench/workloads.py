"""The four workloads: generated parameters, one unit of work, oracles.

A workload's *inputs* are a plain dict made from ``--seed`` alone; the
program under test (``repro``) receives only those inputs.  Sim
workloads call the public experiment runners in-process; ``sweep_grid``
enters through ``repro.cli.main(["sweep", ...])`` once per executor.

Nothing here imports ``repro`` at module level: ``run.py`` measures
import time itself and must decide when that happens.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

SCALES = ("full", "smoke")

#: ``repro sweep`` executor flags, by pass name.  ``workers1`` exists
#: only for the traced run's ``fabric.cell_overhead_ms``.
EXECUTORS: Dict[str, List[str]] = {
    "serial": ["--jobs", "1"],
    "jobs2": ["--jobs", "2"],
    "workers2": ["--workers", "2"],
    "workers1": ["--workers", "1"],
}
E2E_PASSES = ("serial", "jobs2", "workers2")


@dataclass(frozen=True)
class Spec:
    """One workload: scenario parameters per scale plus its sanity band."""

    name: str
    kind: str  # "long" | "short" | "sweep"
    full: Dict[str, Any]
    smoke: Dict[str, Any]
    #: Sanity band at full scale: the sqrt(n) claim at buffer factor ~1.
    min_utilization: Optional[float] = None


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("long_n128", "long",
         full=dict(n_flows=128, buffer_packets=35, pipe_packets=400,
                   bottleneck_rate="40Mbps", warmup=5, duration=10),
         smoke=dict(n_flows=8, buffer_packets=14, pipe_packets=40,
                    bottleneck_rate="10Mbps", warmup=0.5, duration=1.0),
         min_utilization=0.95),
    Spec("long_n1024", "long",
         full=dict(n_flows=1024, buffer_packets=128, pipe_packets=4096,
                   bottleneck_rate="400Mbps", warmup=0.5, duration=1.5),
         smoke=dict(n_flows=48, buffer_packets=18, pipe_packets=128,
                    bottleneck_rate="40Mbps", warmup=0.25, duration=0.5),
         min_utilization=0.95),
    Spec("short_flows", "short",
         full=dict(load=0.8, buffer_packets=64, size_packets=14,
                   bottleneck_rate="40Mbps", rtt="80ms", warmup=2,
                   duration=10),
         smoke=dict(load=0.8, buffer_packets=64, size_packets=14,
                    bottleneck_rate="10Mbps", rtt="80ms", warmup=0.5,
                    duration=1.5)),
    Spec("sweep_grid", "sweep",
         full=dict(flows="2,3,4,6,8,12", buffer_factors="0.5,1.0,1.5,2.0",
                   pipe=40, rate="10Mbps", warmup=0.5, duration=1.5),
         smoke=dict(flows="2,3", buffer_factors="0.5,1.0",
                    pipe=40, rate="10Mbps", warmup=0.25, duration=0.5)),
)}


def make_inputs(spec: Spec, seed: int, scale: str = "full") -> Dict[str, Any]:
    """The generated parameters: the scale's scenario plus the seed."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return dict(getattr(spec, scale), seed=int(seed))


def params_hash(inputs: Dict[str, Any]) -> str:
    """Content hash of the inputs, for the ledger's environment stamp."""
    blob = json.dumps(inputs, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def grid_cells(inputs: Dict[str, Any]) -> int:
    """Number of cells in a ``sweep_grid`` input."""
    return (len(inputs["flows"].split(","))
            * len(inputs["buffer_factors"].split(",")))


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def fingerprint(result: Any) -> str:
    """Canonical JSON of a result (dataclass or checkpoint dict).

    The ``metrics`` field is stripped: an obs-enabled run attaches a
    snapshot there by design, and identity is judged on the rest.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        result = dataclasses.asdict(result)
    result = {k: v for k, v in result.items() if k != "metrics"}
    return json.dumps(result, sort_keys=True, default=repr)


# ----------------------------------------------------------------------
# In-process units of work (sim workloads; sweep cells in traced runs)
# ----------------------------------------------------------------------
Unit = Tuple[str, Dict[str, Any]]  # (kind, experiment keyword arguments)


def run_units(units: List[Unit], optimize: bool = True,
              engine_opts: Optional[Dict[str, Any]] = None,
              on_sim: Optional[Callable[[Any], None]] = None) -> List[Any]:
    """Run each unit through the public experiment runner of its kind."""
    from repro.experiments.common import (
        run_long_flow_experiment,
        run_short_flow_experiment,
    )
    from repro.traffic.sizes import FixedSize

    results = []
    for kind, inputs in units:
        engine = dict(optimize=optimize, engine_opts=engine_opts,
                      on_sim=on_sim)
        if kind == "long":
            results.append(run_long_flow_experiment(**inputs, **engine))
        else:
            params = dict(inputs)
            sizes = FixedSize(params.pop("size_packets"))
            results.append(run_short_flow_experiment(
                sizes=sizes, **params, **engine))
    return results


def sanity_checks(spec: Spec, scale: str,
                  results: List[Any]) -> List[Tuple[str, bool]]:
    """The workload's sanity bands as ``(label, held)`` pairs."""
    checks = []
    for result in results:
        if spec.kind == "short":
            checks.append(("n_completed > 0", result.n_completed > 0))
            checks.append(("afct finite", math.isfinite(result.afct)))
        elif spec.min_utilization is not None and scale == "full":
            checks.append((f"utilization >= {spec.min_utilization}",
                           result.utilization >= spec.min_utilization))
    return checks


# ----------------------------------------------------------------------
# sweep_grid: one CLI pass per executor
# ----------------------------------------------------------------------
@contextlib.contextmanager
def scratch_dir() -> Iterator[str]:
    """A temporary directory inside the checkout, removed afterwards.

    Checkpoints and fabric queues go here, passed explicitly via
    ``--checkpoint`` / ``--queue-dir``: the CLI default ``.repro-queue``
    would land in the working tree, and the system temp directory is
    outside the checkout the benchmark is confined to.
    """
    from bench import OUT

    OUT.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextlib.contextmanager
def _captured_stdout() -> Iterator[None]:
    """Swallow stdout of this process *and* of workers it spawns.

    The CLI prints a table, and spawned workers inherit file descriptor
    1; neither may reach the benchmark's own output, whose last line is
    the result.
    """
    import sys

    sys.stdout.flush()
    saved = os.dup(1)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 1)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                yield
        finally:
            os.dup2(saved, 1)
            os.close(saved)


@dataclass
class SweepPass:
    """What one ``repro sweep`` invocation did."""

    wall_s: float
    exit_code: int
    #: cell key -> checkpointed cell record (params, result, ...).
    cells: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def fingerprints(self) -> Dict[str, str]:
        return {key: fingerprint(cell["result"])
                for key, cell in self.cells.items()}

    @property
    def events(self) -> int:
        return sum(cell["result"]["events_processed"]
                   for cell in self.cells.values())

    def units(self) -> List[Unit]:
        """The cells as in-process units, in the order they ran."""
        return [("long", dict(cell["params"])) for cell in self.cells.values()]


def run_sweep_pass(inputs: Dict[str, Any], executor: str,
                   scratch: str) -> SweepPass:
    """Time one ``repro sweep`` through the CLI; read back its checkpoint."""
    import repro.cli

    checkpoint = os.path.join(scratch, f"{executor}.json")
    queue_dir = os.path.join(scratch, f"{executor}.queue")
    argv = ["sweep", "--flows", inputs["flows"],
            "--buffer-factors", inputs["buffer_factors"],
            "--pipe", str(inputs["pipe"]), "--rate", inputs["rate"],
            "--warmup", str(inputs["warmup"]),
            "--duration", str(inputs["duration"]),
            "--seed", str(inputs["seed"]),
            "--fresh", "--checkpoint", checkpoint, *EXECUTORS[executor]]
    if executor.startswith("workers"):
        argv += ["--queue-dir", queue_dir]
    with _captured_stdout():
        started = time.perf_counter()
        exit_code = repro.cli.main(argv)
        wall = time.perf_counter() - started
    cells: Dict[str, Dict[str, Any]] = {}
    if os.path.exists(checkpoint):
        with open(checkpoint, "r", encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
        os.unlink(checkpoint)
    shutil.rmtree(queue_dir, ignore_errors=True)
    return SweepPass(wall_s=wall, exit_code=exit_code, cells=cells)
