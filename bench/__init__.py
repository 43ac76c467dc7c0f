"""The repository benchmark: four workloads, end-to-end and per-layer.

``BENCHMARK.json`` at the repository root is the contract (command,
workloads, metric names, units, directions, regression bounds); this
package is the program it names.  Entry points:

* ``python3 bench/run.py --workload W --seed S --seconds T --trace 0|1``
  — one run; the last stdout line is the result JSON.
* ``python3 bench/aa.py`` — A/A harness: two sets of runs on the same
  code, judged against the bounds in ``BENCHMARK.json``.
* ``python3 bench/ledger.py`` — re-measure ``bench/ledger/*.json``.

``bench/README.md`` is the glossary later issues cite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (span files, checkpoints, fabric
#: queues) lands here; the directory is git-ignored.
OUT = Path(__file__).resolve().parent / "out"

#: Seed used for the committed ledger and while developing a change.
DEFAULT_SEED = 1
#: Seed a performance claim must also hold on; never tune against it.
HELD_OUT_SEED = 20040830


def add_src_to_path() -> None:
    """Make ``repro`` importable from the source tree (no install step)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(
            f"{SRC / 'repro'} not found: the benchmark drives the repro "
            f"package from source and cannot run without it")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names and units live."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)
