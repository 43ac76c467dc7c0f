"""Simulation-correctness static analysis: one rule, REPRO501.

``Packet.release()`` returns a packet to a process-wide free list, and
nothing at run time notices a later read through the same variable
unless the pool runs in debug mode.  REPRO501 finds such reads
statically, with a must-released dataflow over each function's control
flow graph (:mod:`repro.analysis.cfg`, :mod:`repro.analysis.dataflow`)
and per-function release summaries resolved through the symbol table
(:mod:`repro.analysis.symbols`).  It goes when the packet pool does.

Every other guard the package once held is a test now: a seeded mutant
of each (EXPERIMENTS.md, "Guard scorecard — the rest of
repro.analysis") is caught by tier-1 — determinism by the bit-identity
and equivalence tests, fsync-before-publish by the write-order spies,
``__slots__`` hygiene by an introspection test, units by the sizing and
RED-configuration tests, fleet deadlines by a clock-step test.

Entry points: the :class:`LintEngine` (``repro lint`` in the CLI), the
rule registry in :mod:`repro.analysis.registry`, and per-line
suppression with ``# repro: noqa(RULE)`` comments.  The engine adds two
diagnostics of its own: REPRO001 (unreadable file) and REPRO002 (a
suppression that silences nothing).
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
