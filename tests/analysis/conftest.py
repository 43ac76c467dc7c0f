"""Shared fixtures for the static-analysis test suite.

Rule tests write fixture modules into a temporary ``repro/<pkg>/``
mirror so the symbol table names their modules exactly as it does on
the real tree.
"""

import textwrap

import pytest

from repro.analysis import lint_paths


@pytest.fixture
def lint_source(tmp_path):
    """Lint a source snippet as if it lived at ``src/repro/<rel>``.

    Returns the full LintResult; rule tests usually look at
    ``result.diagnostics``.
    """

    def _lint(source, rel="sim/fixture.py", select=None):
        path = tmp_path / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return lint_paths([str(tmp_path)], select=select)

    return _lint


def rule_ids(result):
    """The set of rule ids present in a LintResult."""
    return {d.rule_id for d in result.diagnostics}
