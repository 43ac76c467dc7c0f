"""Built-in simulator-correctness rules.

Importing this package registers every rule:

* ``pool`` — REPRO501
"""

from __future__ import annotations

from repro.analysis.rules import pool

__all__ = ["pool"]
