"""Diagnostic records emitted by lint rules."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering reflects gate strictness.

    ``ERROR`` fails ``repro lint`` (exit code 1) and therefore CI;
    ``WARNING`` and ``INFO`` are reported but do not gate.
    """

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation pinned to a file and line.

    Attributes
    ----------
    path:
        Path of the offending file, as given to the engine.
    line, col:
        1-based line and 0-based column (``ast`` conventions).
    rule_id:
        Identifier such as ``"REPRO501"``; ``"REPRO001"`` marks
        engine-level problems (unreadable or unparsable file).
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description, including the remedy.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sort_key", (self.path, self.line, self.col, self.rule_id))

    def format(self) -> str:
        """Render in the conventional ``file:line:col ID severity: msg`` shape."""
        return (f"{self.path}:{self.line}:{self.col} "
                f"{self.rule_id} {self.severity}: {self.message}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (``repro lint --format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": str(self.severity),
            "message": self.message,
        }
