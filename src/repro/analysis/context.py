"""Parsed-file and project context handed to lint rules."""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, List, Optional, Tuple

#: ``# repro: noqa`` (suppress everything on the line) or
#: ``# repro: noqa(REPRO101)`` / ``# repro: noqa(REPRO101, REPRO402)``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\(\s*(?P<rules>[A-Z0-9_,\s]+?)\s*\))?", re.IGNORECASE)

#: Packages whose modules run inside the simulation event loop; several
#: rules only apply there (wall-clock reads are fine in the bench
#: harness, fatal inside the simulator).
SIM_SCOPE_PACKAGES: Tuple[str, ...] = ("sim", "net", "tcp", "traffic", "faults")

#: Packages implementing the distributed sweep fabric.  Lease expiry and
#: record identity there must never read the wall clock (REPRO105): an
#: NTP step would expire every lease at once, and timestamps in records
#: would break content-addressed identity.
FABRIC_SCOPE_PACKAGES: Tuple[str, ...] = ("fabric",)


class FileContext:
    """One parsed source file plus the metadata rules need.

    Attributes
    ----------
    path:
        The path as it should appear in diagnostics (relative when the
        engine was given a relative root).
    source, lines:
        Raw text and its ``splitlines()`` view.
    tree:
        The parsed :mod:`ast` module, or ``None`` when parsing failed
        (the engine emits ``REPRO001`` and rules skip the file).
    """

    def __init__(self, path: str, source: str, tree: Optional[ast.Module]):
        self.path = path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        self._noqa: Optional[Dict[int, Optional[FrozenSet[str]]]] = None

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------
    @property
    def module_parts(self) -> Tuple[str, ...]:
        """Path components, normalized to forward slashes."""
        return tuple(self.path.replace("\\", "/").split("/"))

    def in_packages(self, packages: Tuple[str, ...]) -> bool:
        """True when the file lives under ``repro/<pkg>/`` for any ``pkg``.

        Matching is positional — the component right after a ``repro``
        directory — so fixture trees that mirror the layout (used by the
        rule tests) scope identically to the real source tree.
        """
        parts = self.module_parts
        for i, part in enumerate(parts[:-1]):
            if part == "repro" and parts[i + 1] in packages:
                return True
        return False

    @property
    def in_sim_scope(self) -> bool:
        """Whether this file belongs to the simulation hot packages."""
        return self.in_packages(SIM_SCOPE_PACKAGES)

    @property
    def in_fabric_scope(self) -> bool:
        """Whether this file belongs to the distributed sweep fabric."""
        return self.in_packages(FABRIC_SCOPE_PACKAGES)

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
