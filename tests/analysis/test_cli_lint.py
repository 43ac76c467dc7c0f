"""The `repro lint` subcommand."""

import json
import textwrap

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


USE_AFTER_RELEASE = """\
def drop(pkt):
    pkt.release()
    return pkt.size  # repro: noqa(REPRO001)
"""


def write_fixture(tmp_path, source, rel="sim/fixture.py"):
    path = tmp_path / "repro" / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestLintCommand:
    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        write_fixture(tmp_path, "x = 1\n")
        code, out = run_cli(capsys, "lint", str(tmp_path))
        assert code == 0
        assert "0 error(s)" in out

    def test_findings_exit_one(self, capsys, tmp_path):
        write_fixture(tmp_path, USE_AFTER_RELEASE)
        code, out = run_cli(capsys, "lint", str(tmp_path))
        assert code == 1
        assert "REPRO501" in out
        assert "1 error(s), 1 warning(s)" in out  # REPRO002: the stale noqa

    def test_select_filters_rules(self, capsys, tmp_path):
        write_fixture(tmp_path, USE_AFTER_RELEASE)
        code, out = run_cli(capsys, "lint", "--select", "REPRO5",
                            str(tmp_path))
        assert code == 1
        assert "REPRO501" in out
        assert "REPRO002" not in out  # not selected

    def test_json_format(self, capsys, tmp_path):
        write_fixture(tmp_path, USE_AFTER_RELEASE)
        code, out = run_cli(capsys, "lint", "--format", "json",
                            str(tmp_path))
        assert code == 1
        payload = json.loads(out)
        assert payload["files_scanned"] == 1
        # Sorted by location: the noqa comment's warning sits at col 0.
        assert [(d["rule"], d["severity"]) for d in payload["diagnostics"]] \
            == [("REPRO002", "warning"), ("REPRO501", "error")]

    def test_list_rules(self, capsys):
        code, out = run_cli(capsys, "lint", "--list-rules")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["REPRO501"]

    def test_writes_nothing_to_the_working_directory(self, capsys, tmp_path,
                                                     monkeypatch):
        write_fixture(tmp_path / "tree", "x = 1\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, _ = run_cli(capsys, "lint", str(tmp_path / "tree"))
        assert code == 0
        assert list(cwd.iterdir()) == []

    def test_bad_path_is_usage_error(self, capsys, tmp_path):
        code, out = run_cli(capsys, "lint", str(tmp_path / "missing"))
        assert code == 2
