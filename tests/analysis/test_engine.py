"""Engine-level behaviour: collection, noqa, selection, output shape."""

import os
from pathlib import Path

import pytest

import repro.sim.engine
from repro.analysis import Severity, lint_paths
from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import collect_files
from repro.analysis.registry import all_rules, get_rules
from repro.errors import ConfigurationError

from tests.analysis.conftest import rule_ids

_SRC = Path(repro.sim.engine.__file__).resolve().parents[2]

BAD_USE_AFTER_RELEASE = """\
def drop(pkt):
    pkt.release()
    return pkt.size
"""


class TestCollection:
    def test_directory_walk_finds_python_files(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "pkg"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        (sub / "notes.txt").write_text("not python\n")
        files = collect_files([str(tmp_path)])
        assert [os.path.basename(f) for f in files] == ["a.py", "b.py"]

    def test_skips_cache_dirs(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.py").write_text("x = 1\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path)])
        assert [os.path.basename(f) for f in files] == ["real.py"]

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            collect_files([str(tmp_path / "nope")])

    def test_non_python_file_rejected(self, tmp_path):
        other = tmp_path / "data.json"
        other.write_text("{}")
        with pytest.raises(ConfigurationError):
            collect_files([str(other)])


class TestSyntaxErrors:
    def test_unparseable_file_reports_repro001(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        result = lint_paths([str(tmp_path)])
        assert rule_ids(result) == {"REPRO001"}
        assert result.exit_code == 1


class TestNoqa:
    def test_bare_noqa_suppresses(self, lint_source):
        clean = BAD_USE_AFTER_RELEASE.replace(
            "pkt.size", "pkt.size  # repro: noqa")
        result = lint_source(clean)
        assert result.diagnostics == []
        assert result.suppressed == 1

    def test_rule_list_noqa_suppresses_named_rule(self, lint_source):
        clean = BAD_USE_AFTER_RELEASE.replace(
            "pkt.size", "pkt.size  # repro: noqa(REPRO501)")
        result = lint_source(clean)
        assert result.diagnostics == []
        assert result.suppressed == 1

    def test_rule_list_noqa_ignores_other_rules(self, lint_source):
        miss = BAD_USE_AFTER_RELEASE.replace(
            "pkt.size", "pkt.size  # repro: noqa(REPRO001)")
        result = lint_source(miss)
        # The use-after-release diagnostic still fires AND the
        # suppression that silenced nothing is itself reported (REPRO002).
        assert rule_ids(result) == {"REPRO501", "REPRO002"}
        assert result.suppressed == 0


class TestSelection:
    def test_select_prefix(self, lint_source):
        result = lint_source(BAD_USE_AFTER_RELEASE, select=["repro5"])
        assert rule_ids(result) == {"REPRO501"}

    def test_select_exact_id(self, lint_source):
        result = lint_source(BAD_USE_AFTER_RELEASE, select=["REPRO501"])
        assert rule_ids(result) == {"REPRO501"}

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigurationError):
            get_rules(["REPRO999"])

    def test_all_rules_have_unique_ids(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert len(ids) == len(set(ids))
        assert ids == ["REPRO501"]


class TestDiagnostics:
    def test_format_line(self):
        diag = Diagnostic(path="a/b.py", line=3, col=7, rule_id="REPRO501",
                          severity=Severity.ERROR, message="boom")
        assert diag.format() == "a/b.py:3:7 REPRO501 error: boom"

    def test_sorted_by_location(self, lint_source):
        source = """\
        def f(a, b):
            a.release()
            b.release()
            x = b.size
            return a.size, x
        """
        result = lint_source(source)
        lines = [d.line for d in result.diagnostics]
        assert lines == sorted(lines)

    def test_counts_and_exit_code(self, lint_source):
        result = lint_source(BAD_USE_AFTER_RELEASE)
        errors, warnings, infos = result.counts()
        assert (errors, warnings, infos) == (1, 0, 0)
        assert result.exit_code == 1
        assert result.files_scanned == 1

    def test_clean_tree_exits_zero(self, lint_source):
        result = lint_source("x = 1\n")
        assert result.exit_code == 0


class TestRealTree:
    def test_real_tree_is_clean(self):
        # The one place outside CI where the full rule set meets the
        # real tree: no diagnostics, and (full run) no stale
        # ``# repro: noqa`` either, which would surface as REPRO002.
        result = lint_paths([str(_SRC / "repro")])
        assert [d.format() for d in result.diagnostics] == []
        assert result.files_scanned == sum(
            "__pycache__" not in path.parts
            for path in (_SRC / "repro").rglob("*.py"))


class TestUnusedNoqa:
    """REPRO002: suppressions that silence nothing are themselves flagged."""

    def test_unused_bare_noqa_warns(self, lint_source):
        result = lint_source("x = 1  # repro: noqa\n")
        assert rule_ids(result) == {"REPRO002"}
        diag = result.diagnostics[0]
        assert diag.severity is Severity.WARNING
        assert "unused suppression" in diag.message
        assert result.exit_code == 0  # warning-only stays green

    def test_unused_rule_list_noqa_warns_with_the_list(self, lint_source):
        result = lint_source("x = 1  # repro: noqa(REPRO501, REPRO001)\n")
        assert rule_ids(result) == {"REPRO002"}
        assert "REPRO001, REPRO501" in result.diagnostics[0].message

    def test_used_noqa_does_not_warn(self, lint_source):
        clean = BAD_USE_AFTER_RELEASE.replace(
            "pkt.size", "pkt.size  # repro: noqa")
        result = lint_source(clean)
        assert result.diagnostics == []

    def test_not_emitted_under_select(self, lint_source):
        # A --select subset cannot know whether an unselected rule
        # would have used the suppression.
        result = lint_source("x = 1  # repro: noqa\n", select=["REPRO5"])
        assert result.diagnostics == []

    def test_explicit_repro002_opts_out(self, lint_source):
        result = lint_source("x = 1  # repro: noqa(REPRO002)\n")
        assert result.diagnostics == []

    def test_bare_noqa_cannot_self_suppress(self, lint_source):
        # If a bare noqa silenced REPRO002, every stale suppression
        # would justify itself.
        result = lint_source("x = 1  # repro: noqa()\n")
        assert rule_ids(result) == {"REPRO002"}

    def test_noqa_in_docstring_is_not_a_suppression(self, lint_source):
        source = '"""Docs mention ``# repro: noqa`` here."""\nx = 1\n'
        result = lint_source(source)
        assert result.diagnostics == []

    def test_noqa_mentioned_mid_comment_is_not_a_suppression(
            self, lint_source):
        source = "x = 1  # prose about the # repro: noqa syntax\n"
        result = lint_source(source)
        assert result.diagnostics == []
