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

    # REPRO205: _drain_burst's SER/PROP bodies vs the canonical
    # _burst_step.  The two copies live in the same file, so mutation
    # anchors use indentation: canonical bodies sit one nesting level
    # shallower than the drain loop's.

    def test_burst_drain_ser_drift_caught(self, mirror):
        mutate(mirror, "net/link.py",
               "                        queue.departures += 1\n",
               "                        queue.departures += 2\n")
        result = lint_paths([str(mirror)], select=["REPRO205"])
        assert rule_ids(result) == {"REPRO205"}
        assert any("serialization-end" in d.message
                   for d in result.diagnostics)

    def test_burst_drain_prop_drift_caught(self, mirror):
        mutate(mirror, "net/link.py",
               "                    hops = packet.hops = packet.hops + 1\n",
               "                    hops = packet.hops = packet.hops + 2\n")
        result = lint_paths([str(mirror)], select=["REPRO205"])
        assert rule_ids(result) == {"REPRO205"}
        assert any("delivery" in d.message for d in result.diagnostics)

    def test_burst_canonical_step_drift_caught(self, mirror):
        # Equivalence is symmetric: editing the canonical _burst_step
        # without touching _drain_burst must also trip the checker.
        mutate(mirror, "net/link.py",
               "            hops = packet.hops = packet.hops + 1\n",
               "            hops = packet.hops = packet.hops + 2\n")
        result = lint_paths([str(mirror)], select=["REPRO205"])
        assert rule_ids(result) == {"REPRO205"}

    def test_burst_mirrored_edit_is_clean(self, mirror):
        # The same edit applied to BOTH copies keeps them equivalent —
        # the rule checks mirroring, not the physics.
        for indent in ("            ", "                    "):
            mutate(mirror, "net/link.py",
                   f"{indent}link.packets_delivered += 1\n",
                   f"{indent}link.packets_delivered += 2\n")
        result = lint_paths([str(mirror)], select=["REPRO205"])
        assert result.diagnostics == []

    def test_real_tree_is_clean(self):
        result = lint_paths([str(_SRC / "repro")], select=["REPRO2"])
        assert result.diagnostics == []

    def test_rules_inert_without_hot_path_files(self, tmp_path):
        # A scan set that contains neither side of a pair must not
        # fabricate drift errors (e.g. linting a single unrelated file).
        plain = tmp_path / "repro" / "sim" / "other.py"
        plain.parent.mkdir(parents=True)
        plain.write_text("x = 1\n")
        result = lint_paths([str(tmp_path)], select=["REPRO2"])
        assert result.diagnostics == []
