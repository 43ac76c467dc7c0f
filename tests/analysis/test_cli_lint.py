"""The `repro lint` subcommand."""

import json
import textwrap

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
        write_fixture(tmp_path, """\
        import time


        def stamp():
            return time.time()
        """)
        code, out = run_cli(capsys, "lint", str(tmp_path))
        assert code == 1
        assert "REPRO103" in out
        assert "1 error(s)" in out

    def test_select_filters_rules(self, capsys, tmp_path):
        write_fixture(tmp_path, """\
        import time


        def stamp():
            return time.time()
        """)
        code, out = run_cli(capsys, "lint", "--select", "REPRO4",
                            str(tmp_path))
        assert code == 0
        assert "REPRO103" not in out

    def test_json_format(self, capsys, tmp_path):
        write_fixture(tmp_path, """\
        def oops(sim, cb):
            sim.schedule(-1.0, cb)
        """)
        code, out = run_cli(capsys, "lint", "--format", "json",
                            str(tmp_path))
        assert code == 1
        payload = json.loads(out)
        assert payload["files_scanned"] == 1
        assert payload["diagnostics"][0]["rule"] == "REPRO402"
        assert payload["diagnostics"][0]["severity"] == "error"

    def test_list_rules(self, capsys):
        code, out = run_cli(capsys, "lint", "--list-rules")
        assert code == 0
        for rule_id in ("REPRO101", "REPRO301", "REPRO401", "REPRO501"):
            assert rule_id in out

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
