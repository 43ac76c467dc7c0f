"""Run the benchmark command as the driver does: one process per run."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

from bench import ROOT, load_contract


def invoke(workload: str, seed: int, seconds: float, trace: int = 0,
           extra: Sequence[str] = ()) -> Dict[str, Any]:
    """One run of the contract's command; returns its result object.

    A non-zero exit is not an error here — the result line still says
    what failed — but a run that printed no result is.
    """
    command = list(load_contract()["command"])
    command[0] = sys.executable if command[0] == "python3" else command[0]
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{' '.join(argv)} exited {proc.returncode} without a result:\n"
            f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def values(result: Dict[str, Any]) -> Dict[str, float]:
    """``{metric: value}`` of a result object."""
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def environment() -> Dict[str, Any]:
    """Where and on what code a ledger entry was measured."""
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}
