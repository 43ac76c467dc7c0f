"""Fast-path drift rules: the inline hot-path copies in link.py /
interface.py must stay equivalent to their canonical definitions.

Each test copies the real source files into a ``repro/net``
mirror under tmp_path, applies (or doesn't) a deliberate mutation to
one side, and asserts the drift checkers respond.
"""

import shutil
from pathlib import Path

import pytest

import repro.net.link
import repro.sim.engine
from repro.analysis import lint_paths

from tests.analysis.conftest import rule_ids

_SRC = Path(repro.sim.engine.__file__).resolve().parents[2]

_MIRROR = (
    ("repro/net/link.py", "net/link.py"),
    ("repro/net/interface.py", "net/interface.py"),
    ("repro/net/queues.py", "net/queues.py"),
)


@pytest.fixture
def mirror(tmp_path):
    """Copy the real hot-path modules into a repro/ mirror tree."""
    root = tmp_path / "mirror"
    for rel, dest in _MIRROR:
        target = root / "repro" / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(_SRC / rel, target)
    return root


def mutate(root, rel, old, new, count=1):
    path = root / "repro" / rel
    source = path.read_text()
    assert old in source, f"mutation anchor not found in {rel}: {old!r}"
    path.write_text(source.replace(old, new, count))


class TestDriftCheckers:
    def test_unmutated_mirror_is_clean(self, mirror):
        result = lint_paths([str(mirror)], select=["REPRO2"])
        assert result.diagnostics == []
        assert result.exit_code == 0

    def test_enqueue_copy_drift_caught(self, mirror):
        mutate(mirror, "net/interface.py",
               "bytes_now = queue._bytes = queue._bytes + size",
               "bytes_now = queue._bytes = queue._bytes + size + 1")
        result = lint_paths([str(mirror)], select=["REPRO202"])
        assert rule_ids(result) == {"REPRO202"}

    def test_unmirrored_obs_guard_removal_caught(self, mirror):
        # The observability guard is part of the mirrored admitted-path
        # region: deleting it from the inline copy in Interface.enqueue
        # without touching the canonical Queue.enqueue is exactly the
        # kind of un-mirrored edit REPRO202 exists to catch.
        mutate(mirror, "net/interface.py",
               "            if _obs.enabled:\n"
               "                _obs.queue_event(\"enqueue\", queue, packet, n)\n",
               "")
        result = lint_paths([str(mirror)], select=["REPRO202"])
        assert rule_ids(result) == {"REPRO202"}

    def test_unmirrored_obs_guard_edit_caught(self, mirror):
        # Changing the recorded event in one copy only must also trip.
        mutate(mirror, "net/interface.py",
               '_obs.queue_event("enqueue", queue, packet, n)',
               '_obs.queue_event("drop", queue, packet, n)')
        result = lint_paths([str(mirror)], select=["REPRO202"])
        assert rule_ids(result) == {"REPRO202"}

    def test_mirrored_obs_guard_edit_is_clean(self, mirror):
        # The same edit applied to BOTH sides keeps the pair equivalent
        # — the rule checks mirroring, not the guard's content.
        for rel, owner in (("net/queues.py", "self"),
                           ("net/interface.py", "queue")):
            mutate(mirror, rel,
                   f'_obs.queue_event("enqueue", {owner}, packet, n)',
                   f'_obs.queue_event("mark", {owner}, packet, n)')
        result = lint_paths([str(mirror)], select=["REPRO202"])
        assert result.diagnostics == []

    def test_missing_anchor_is_reported_not_skipped(self, mirror):
        # Renaming either enqueue must not turn the check off silently.
        mutate(mirror, "net/interface.py",
               "    def enqueue(self, packet", "    def enqueue2(self, packet")
        result = lint_paths([str(mirror)], select=["REPRO202"])
        (diag,) = result.diagnostics
        assert diag.rule_id == "REPRO202"
        assert "drift anchor missing" in diag.message

    def test_partial_scan_without_canonical_module_is_reported(self, mirror):
        (mirror / "repro" / "net" / "queues.py").unlink()
        result = lint_paths([str(mirror)], select=["REPRO202"])
        (diag,) = result.diagnostics
        assert diag.path.endswith("interface.py")
        assert "not in the linted file set" in diag.message

    def test_real_tree_is_clean(self):
        # The one place outside CI where the full rule set meets the
        # real tree: no diagnostics, and (full run) no stale
        # ``# repro: noqa`` either, which would surface as REPRO002.
        result = lint_paths([str(_SRC / "repro")])
        assert [d.format() for d in result.diagnostics] == []
        assert result.files_scanned > 100

    def test_rules_inert_without_hot_path_files(self, tmp_path):
        # A scan set that contains neither side of a pair must not
        # fabricate drift errors (e.g. linting a single unrelated file).
        plain = tmp_path / "repro" / "sim" / "other.py"
        plain.parent.mkdir(parents=True)
        plain.write_text("x = 1\n")
        result = lint_paths([str(tmp_path)], select=["REPRO2"])
        assert result.diagnostics == []
