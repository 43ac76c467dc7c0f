"""Parsed-file and project context handed to lint rules.

A :class:`FileContext` is one parsed file plus its ``# repro: noqa``
comments; a :class:`Project` is every file of the run and the symbol
table built over them.  No rule is scoped by package: REPRO501 checks
every function it is given.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional

#: ``# repro: noqa`` (suppress everything on the line) or
#: ``# repro: noqa(REPRO501)`` / ``# repro: noqa(REPRO501, REPRO002)``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<rules>[A-Z0-9_,\s]+?)\s*\))?", re.IGNORECASE)


class FileContext:
    """One parsed source file plus the metadata rules need.

    Attributes
    ----------
    path:
        The path as it should appear in diagnostics (relative when the
        engine was given a relative root).
    source:
        Raw text.
    tree:
        The parsed :mod:`ast` module, or ``None`` when parsing failed
        (the engine emits ``REPRO001`` and rules skip the file).
    """

    def __init__(self, path: str, source: str, tree: Optional[ast.Module]):
        self.path = path
        self.source = source
        self.tree = tree
        self._noqa: Optional[Dict[int, Optional[FrozenSet[str]]]] = None

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def noqa_for_line(self, line: int) -> Optional[FrozenSet[str]]:
        """Suppression on ``line``: ``None`` = no comment, empty set = all rules."""
        if self._noqa is None:
            self._noqa = self._scan_noqa()
        return self._noqa.get(line)

    def noqa_lines(self) -> Dict[int, Optional[FrozenSet[str]]]:
        """Every ``# repro: noqa`` comment: line -> listed rules.

        An empty set means a bare (suppress-everything) comment.  The
        engine uses this to warn about suppressions that silence
        nothing (REPRO002).
        """
        if self._noqa is None:
            self._noqa = self._scan_noqa()
        return dict(self._noqa)

    def suppresses(self, line: int, rule_id: str) -> bool:
        """Whether a ``# repro: noqa`` comment on ``line`` covers ``rule_id``."""
        rules = self.noqa_for_line(line)
        if rules is None:
            return False
        return not rules or rule_id.upper() in rules

    def _scan_noqa(self) -> Dict[int, Optional[FrozenSet[str]]]:
        # Tokenize so a ``# repro: noqa`` *mentioned* inside a docstring
        # or string literal neither suppresses anything nor trips the
        # unused-suppression warning — only real comments count.
        table: Dict[int, Optional[FrozenSet[str]]] = {}
        if "noqa" not in self.source:
            return table
        import io
        import tokenize
        try:
            tokens = list(tokenize.generate_tokens(
                io.StringIO(self.source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return table
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            # Anchored match: the directive must open the comment
            # (``x = 1  # repro: noqa``); prose that merely *mentions*
            # the syntax deeper in a comment is not a suppression.
            match = _NOQA_RE.match(tok.string)
            if match is None:
                continue
            lineno = tok.start[0]
            listed = match.group("rules")
            if listed is None:
                table[lineno] = frozenset()
            else:
                table[lineno] = frozenset(
                    token.strip().upper()
                    for token in listed.split(",") if token.strip())
        return table


class Project:
    """The full set of files under analysis (cross-file rules need it)."""

    def __init__(self, files: List[FileContext]):
        self.files = files
        self._symbols = None

    @property
    def symbols(self):
        """Lazily-built :class:`~repro.analysis.symbols.SymbolTable`.

        Shared by every whole-program rule in a run; imported lazily so
        per-file rules never pay for it.
        """
        if self._symbols is None:
            from repro.analysis.symbols import SymbolTable
            self._symbols = SymbolTable(self.files)
        return self._symbols
