"""The lint engine: file collection, parsing, rule dispatch, suppression.

The engine is deliberately dependency-free (``ast`` + the registry), so
``repro lint`` runs anywhere the simulator runs — no ruff/mypy needed
for the simulator-specific invariants, which is exactly the point: the
rules here encode knowledge generic tools cannot have.

Two engine-level diagnostics exist outside the rule registry:

* ``REPRO001`` — the file could not be read or parsed.
* ``REPRO002`` — a ``# repro: noqa`` comment suppresses nothing
  (warning; only emitted on full runs, since a ``--select`` subset
  cannot know whether some unselected rule would have fired).
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.context import FileContext, Project
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import Rule, get_rules
from repro.errors import ConfigurationError

__all__ = ["LintEngine", "LintResult", "collect_files", "lint_paths"]

#: Directories never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "node_modules", ".venv", "venv"}


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directories are walked recursively in sorted order so diagnostics
    are stable across filesystems; non-Python files given explicitly
    raise :class:`~repro.errors.ConfigurationError`.
    """
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS)
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        elif os.path.isfile(path):
            if not path.endswith(".py"):
                raise ConfigurationError(f"not a Python file: {path!r}")
            out.append(path)
        else:
            raise ConfigurationError(f"no such file or directory: {path!r}")
    # Deduplicate while preserving the (sorted-per-root) order.
    seen = set()
    unique: List[str] = []
    for path in out:
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


class LintResult:
    """Outcome of one engine run."""

    def __init__(self, diagnostics: List[Diagnostic], files_scanned: int,
                 suppressed: int):
        self.diagnostics = diagnostics
        self.files_scanned = files_scanned
        #: Findings silenced by ``# repro: noqa`` comments.
        self.suppressed = suppressed

    @property
    def errors(self) -> List[Diagnostic]:
        """The error-severity subset (what gates CI)."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def exit_code(self) -> int:
        """0 when clean (or warnings only), 1 when any error remains."""
        return 1 if self.errors else 0

    def counts(self) -> Tuple[int, int, int]:
        """(errors, warnings, infos) tally."""
        errors = warnings = infos = 0
        for diag in self.diagnostics:
            if diag.severity is Severity.ERROR:
                errors += 1
            elif diag.severity is Severity.WARNING:
                warnings += 1
            else:
                infos += 1
        return errors, warnings, infos


class LintEngine:
    """Run a set of rules over a set of paths.

    Parameters
    ----------
    select:
        Optional rule-id selectors (exact ids or prefixes such as
        ``"REPRO5"``); default is every registered rule.
    """

    def __init__(self, select: Optional[Sequence[str]] = None):
        self.rules: List[Rule] = get_rules(select)
        #: REPRO002 runs only when the full rule set ran.
        self._warn_unused_noqa = not select

    def run(self, paths: Sequence[str]) -> LintResult:
        """Lint ``paths`` (files and/or directories) and return the result."""
        filenames = collect_files(paths)
        contexts: List[FileContext] = []
        diagnostics: List[Diagnostic] = []
        for filename in filenames:
            ctx, parse_diag = self._load(filename)
            contexts.append(ctx)
            if parse_diag is not None:
                diagnostics.append(parse_diag)
        project = Project(contexts)
        for ctx in contexts:
            if ctx.tree is None:
                continue
            for rule in self.rules:
                diagnostics.extend(rule.check_file(ctx, project))

        kept, suppressed, used = self._apply_suppressions(
            contexts, diagnostics)
        if self._warn_unused_noqa:
            kept.extend(self._unused_noqa(contexts, used))
        kept.sort(key=lambda d: d.sort_key)
        return LintResult(kept, files_scanned=len(filenames),
                          suppressed=suppressed)

    # ------------------------------------------------------------------
    # Suppressions and REPRO002
    # ------------------------------------------------------------------
    @staticmethod
    def _apply_suppressions(contexts: List[FileContext],
                            diagnostics: List[Diagnostic],
                            ) -> Tuple[List[Diagnostic], int,
                                       Set[Tuple[str, int]]]:
        kept: List[Diagnostic] = []
        suppressed = 0
        used: Set[Tuple[str, int]] = set()
        by_path = {ctx.path: ctx for ctx in contexts}
        for diag in diagnostics:
            ctx = by_path.get(diag.path)
            if ctx is not None and ctx.suppresses(diag.line, diag.rule_id):
                suppressed += 1
                used.add((diag.path, diag.line))
                continue
            kept.append(diag)
        return kept, suppressed, used

    @staticmethod
    def _unused_noqa(contexts: List[FileContext],
                     used: Set[Tuple[str, int]]) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        for ctx in contexts:
            if ctx.tree is None:
                continue
            for line, listed in sorted(ctx.noqa_lines().items()):
                if (ctx.path, line) in used:
                    continue
                # ``# repro: noqa(REPRO002)`` opts a line out of this
                # warning itself; a *bare* noqa cannot (it would
                # self-justify every stale suppression).
                if listed and "REPRO002" in listed:
                    continue
                what = ("# repro: noqa(" + ", ".join(sorted(listed)) + ")"
                        if listed else "# repro: noqa")
                out.append(Diagnostic(
                    path=ctx.path, line=line, col=0, rule_id="REPRO002",
                    severity=Severity.WARNING,
                    message=f"unused suppression: {what} silences no "
                            f"diagnostic on this line — remove it or fix "
                            f"the rule list"))
        return out

    @staticmethod
    def _load(filename: str) -> Tuple[FileContext, Optional[Diagnostic]]:
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            ctx = FileContext(filename, "", None)
            return ctx, Diagnostic(
                path=filename, line=1, col=0, rule_id="REPRO001",
                severity=Severity.ERROR, message=f"cannot read file: {exc}")
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            ctx = FileContext(filename, source, None)
            return ctx, Diagnostic(
                path=filename, line=exc.lineno or 1, col=(exc.offset or 1) - 1,
                rule_id="REPRO001", severity=Severity.ERROR,
                message=f"syntax error: {exc.msg}")
        return FileContext(filename, source, tree), None


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None) -> LintResult:
    """Convenience wrapper: engine construction + run in one call."""
    return LintEngine(select=select).run(paths)


def iter_rule_descriptions() -> Iterable[Tuple[str, str, str]]:
    """(id, severity, summary) for every registered rule (``--list-rules``)."""
    from repro.analysis.registry import all_rules

    for rule in all_rules():
        yield rule.id, str(rule.severity), rule.summary
