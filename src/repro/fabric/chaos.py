"""Crash injection for chaos-testing the sweep fabric.

The chaos tests (and the CI fleet smoke job) kill workers at
*protocol-critical* points — inside a record write, between a record's
publication and the message that announces it — and a SIGKILL cannot be
faked in-process.  Workers therefore call :func:`chaos_point` at each
named step; when the ``REPRO_FABRIC_CHAOS`` environment variable arms a
matching trigger, the process SIGKILLs itself on the spot (no atexit
handlers, no ``finally`` blocks: what a crashed host looks like).

Trigger spec (comma-separated): ``point[:nth][@worker_index]`` — one of
:data:`CHAOS_POINTS`, dying on its Nth hit (default 1), armed only in
the worker with that spawn index if one is given (its respawned
replacement has a new index and survives).  Examples: ``run@0``
(worker 0 dies during its first cell), ``complete-pre-rename:2`` (every
worker dies inside its second record publication), ``complete@1:3``
(worker 1 dies right after publishing its third record, before the
supervisor hears of it).  Unset, the hook costs one dict lookup.
"""

from __future__ import annotations

import os
import signal
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["CHAOS_POINTS", "ENV_VAR", "chaos_point", "parse_spec"]

ENV_VAR = "REPRO_FABRIC_CHAOS"

#: Protocol steps a trigger may name.
CHAOS_POINTS = frozenset({
    "run",                  # cell received, trial function about to run
    "complete-pre-rename",  # result tempfile durable, not yet published
    "complete",             # result published, supervisor not yet told
})

#: Per-process hit counters, keyed by point name.
_hits: Dict[str, int] = {}


def parse_spec(spec: str) -> List[Tuple[str, int, Optional[int]]]:
    """Parse a trigger spec into ``(point, nth, worker_index)`` tuples."""
    triggers = []
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        worker: Optional[int] = None
        if "@" in token:
            token, worker_text = token.split("@", 1)
            # nth may ride on either side of '@': "run@1:3" == "run:3@1"
            if ":" in worker_text:
                worker_text, nth_text = worker_text.split(":", 1)
                token += ":" + nth_text
            try:
                worker = int(worker_text)
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad chaos worker index in {raw!r}") from exc
        nth = 1
        if ":" in token:
            token, nth_text = token.split(":", 1)
            try:
                nth = int(nth_text)
            except ValueError as exc:
                raise ConfigurationError(f"bad chaos count in {raw!r}") from exc
        if token not in CHAOS_POINTS:
            raise ConfigurationError(
                f"unknown chaos point {token!r} in {raw!r} "
                f"(valid: {', '.join(sorted(CHAOS_POINTS))})")
        if nth < 1:
            raise ConfigurationError(f"chaos count must be >= 1 in {raw!r}")
        triggers.append((token, nth, worker))
    return triggers


def chaos_point(point: str, worker_index: Optional[int] = None) -> None:
    """Die here (SIGKILL) if an armed trigger matches; else no-op."""
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return
    count = _hits.get(point, 0) + 1
    _hits[point] = count
    for armed_point, nth, armed_worker in parse_spec(spec):
        if armed_point != point:
            continue
        if armed_worker is not None and armed_worker != worker_index:
            continue
        if count == nth:
            # SIGKILL ourselves: unconditional, no cleanup — the whole
            # point is to leave the queue exactly as a crash would.
            os.kill(os.getpid(), signal.SIGKILL)
