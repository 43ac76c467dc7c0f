"""Simulation-correctness static analysis.

The reproduction's headline claims rest on *bit-identical*,
seed-deterministic simulation: the same master seed must produce the
same packet trace on every run, every platform, and — critically —
before and after every performance PR.  This package machine-checks the
coding rules that make that true, instead of trusting review to catch
violations:

* **Determinism and durability** (``REPRO101``–``REPRO108``) — no
  process-global RNG state, no unseeded ``random.Random()``, no
  wall-clock reads, no event scheduling driven by unordered-set
  iteration inside the simulation packages; fsync-before-publish and
  atomic creates for the sweep's durable files.
* **Slots hygiene** (``REPRO3xx``) — ``__slots__`` classes on the packet
  hot chain neither shadow parent slots nor assign undeclared
  attributes.
* **Sim-time safety** (``REPRO4xx``) — no float ``==``/``!=`` on
  simulation-time expressions, no statically-negative scheduling delays.
* **Pool safety** (``REPRO5xx``) — no use of a packet variable after
  ``release()`` returned it to the free list.
* **Units** (``REPRO6xx``) — no bits/bytes or seconds/milliseconds
  mix-ups across assignments and call boundaries.

The packet path itself has no structural rule: it holds no hand-copied
code, and its oracles are behavioural (the ``burst=False`` and
``optimize=False`` engines, golden traces).

Entry points: the :class:`LintEngine` (``repro lint`` in the CLI), the
rule registry in :mod:`repro.analysis.registry`, and per-line
suppression with ``# repro: noqa(RULE)`` comments.
"""

from __future__ import annotations

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.engine import LintEngine, lint_paths
from repro.analysis.registry import Rule, all_rules, get_rules, register

__all__ = [
    "Diagnostic",
    "LintEngine",
    "Rule",
    "Severity",
    "all_rules",
    "get_rules",
    "lint_paths",
    "register",
]
