"""Torn-write durability and recovery for the sweep's two writes.

Each finished cell is one record (``repro.fabric.records``) and the
checkpoint is a view of the records written once per run; both writes
must fsync the temp file *before* the atomic rename and the parent
directory *after* it.  A checkpoint torn by a crash — or one of the
wrong shape or version — is parked as ``*.corrupt`` and rebuilt from
the records, under every executor.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.fabric import records
from repro.fabric.queue import cell_digest
from repro.runner.supervisor import SweepSupervisor, cell_key


def square(x):
    return {"y": x * x}


def record_and_view(tmp_path):
    """A supervisor whose cell x=3 is recorded, and what it takes to
    write the record of x=4 (``run_cell``) and then only the view
    (``run`` of the recorded cell)."""
    path = str(tmp_path / "sweep.json")
    sup = SweepSupervisor(square, checkpoint_path=path)
    sup.run_cell(x=3)
    return sup, path


class TestWriteDurability:
    def test_temp_file_fsynced_before_rename(self, tmp_path, monkeypatch):
        """The data must be on disk before the rename publishes it: the
        renamed file's own inode was fsynced first, for the record and
        then for the view.  Inodes, not call order: a new shard's
        directory sync right before the rename is not the file's."""
        synced = set()
        renamed = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            synced.add(os.fstat(fd).st_ino)
            return real_fsync(fd)

        def spy_replace(src, dst):
            renamed.append((os.path.basename(dst),
                            os.stat(src).st_ino in synced))
            return real_replace(src, dst)

        sup, path = record_and_view(tmp_path)
        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        sup.run_cell(x=4)
        (record, record_synced), = renamed
        assert record.endswith(".json") and record != "sweep.json"
        assert record_synced
        synced.clear()  # a freed inode number may come back
        del renamed[:]
        sup.run([{"x": 3}])
        assert renamed == [("sweep.json", True)]

    def test_parent_directory_fsynced_after_rename(self, tmp_path,
                                                   monkeypatch):
        """Without the dir fsync a power cut can quietly undo the rename,
        or drop a directory made for it: the new record directory's
        entry in its parent, a new shard's entry in ``cells/``."""
        synced = []
        monkeypatch.setattr(records, "fsync_directory", synced.append)
        root = tmp_path / "sweep.json.queue"
        cells = root / "cells"

        def shard(x):
            return cells / cell_digest(cell_key({"x": x}))[:2]

        sup, path = record_and_view(tmp_path)
        # The spec, then the new root's parent; x=3's new shard, then it.
        assert synced == [str(root), str(tmp_path), str(cells), str(shard(3))]
        del synced[:]
        same = next(x for x in range(4, 10_000) if shard(x) == shard(3))
        sup.run_cell(x=same)  # an existing shard pays one sync
        assert synced == [str(shard(3))]
        del synced[:]
        sup.run([{"x": 3}])
        assert synced == [str(tmp_path)]

    def test_failed_write_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        sup, path = record_and_view(tmp_path)
        monkeypatch.setattr(os, "replace", boom)
        for write in (lambda: sup.run_cell(x=4),   # the record
                      lambda: sup.run([{"x": 3}])):  # the view
            with pytest.raises(OSError, match="disk full"):
                write()
            assert [p.name for p in tmp_path.rglob("*.tmp")] == []
        assert not os.path.exists(path)
        assert sup.completed_cells == 1  # x=4 was never recorded


class TestTornRecovery:
    def tear(self, tmp_path):
        """Write a valid checkpoint, then tear it mid-JSON."""
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(square, checkpoint_path=path).run([{"x": 3}])
        with open(path, "r+") as fh:
            fh.truncate(len(fh.read()) // 2)
        return path

    def test_default_mode_raises_loudly(self, tmp_path):
        """No mode raises any more: without workers too, the torn file
        is parked and the cell comes back from its record."""
        path = self.tear(tmp_path)
        sup = SweepSupervisor(square, checkpoint_path=path)
        assert sup.parked == path + ".corrupt"
        assert os.path.exists(path + ".corrupt") and not os.path.exists(path)
        assert sup.completed_cells == 1
        outcome, = sup.run([{"x": 3}])
        assert outcome.from_checkpoint and outcome.result == {"y": 9}

    def test_quarantine_mode_parks_evidence_and_resumes_empty(self, tmp_path):
        path = self.tear(tmp_path)
        sup = SweepSupervisor(square, checkpoint_path=path, workers=1,
                              queue_dir=str(tmp_path / "queue"))
        assert sup.completed_cells == 0
        assert os.path.exists(path + ".corrupt")  # postmortem evidence
        # The sweep proceeds normally and rewrites a clean checkpoint.
        outcome, = sup.run([{"x": 3}])
        assert outcome.ok and not outcome.from_checkpoint
        with open(path) as fh:
            assert len(json.load(fh)["cells"]) == 1

    def test_quarantine_mode_handles_bad_version_too(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        with open(path, "w") as fh:
            json.dump({"version": 99, "cells": {}}, fh)
        sup = SweepSupervisor(square, checkpoint_path=path, workers=1,
                              queue_dir=str(tmp_path / "queue"))
        assert sup.completed_cells == 0
        assert os.path.exists(path + ".corrupt")

    def test_intact_checkpoint_unaffected_by_quarantine_mode(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(square, checkpoint_path=path).run([{"x": 3}])
        sup = SweepSupervisor(square, checkpoint_path=path, workers=1,
                              queue_dir=str(tmp_path / "queue"))
        assert sup.completed_cells == 1
        assert not os.path.exists(path + ".corrupt")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="workers"):
            SweepSupervisor(square,
                            checkpoint_path=str(tmp_path / "c.json"),
                            workers=-1)


NOT_OBJECTS = [[], "x", 3, {"version": 1, "cells": [1]}]
NOT_OBJECT_IDS = ["list", "string", "number", "cells-list"]
SWEEP = ["sweep", "--flows", "3", "--buffer-factors", "1.0", "--pipe", "40",
         "--rate", "10Mbps", "--warmup", "2", "--duration", "4"]


class TestNonObjectCheckpoint:
    """Valid JSON of the wrong shape is as unreadable as torn JSON."""

    def write(self, tmp_path, payload):
        path = str(tmp_path / "sweep.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return path

    @pytest.mark.parametrize("payload", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_default_mode_raises_typed_error(self, tmp_path, payload):
        """Without workers too, the file is parked, not an error."""
        path = self.write(tmp_path, payload)
        sup = SweepSupervisor(square, checkpoint_path=path)
        assert sup.completed_cells == 0 and sup.parked == path + ".corrupt"
        with open(path + ".corrupt") as fh:
            assert json.load(fh) == payload

    @pytest.mark.parametrize("payload", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_quarantine_mode_parks_it(self, tmp_path, payload):
        path = self.write(tmp_path, payload)
        sup = SweepSupervisor(square, checkpoint_path=path, workers=1,
                              queue_dir=str(tmp_path / "queue"))
        assert sup.completed_cells == 0
        assert os.path.exists(path + ".corrupt")

    @pytest.mark.parametrize("payload", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_serial_sweep_exits_2(self, tmp_path, capsys, payload):
        """``--jobs 1`` parks the file as ``--jobs 2`` does, says so in
        its ``resuming:`` line, and runs the grid (exit 0, not 2)."""
        path = self.write(tmp_path, payload)
        code = main([*SWEEP, "--checkpoint", path])
        out = capsys.readouterr().out
        assert code == 0
        assert (f"resuming: 0 cell(s) already in {path} (unreadable "
                f"checkpoint moved to {path}.corrupt)") in out
        assert "computed" in out
        with open(path) as fh:
            assert len(json.load(fh)["cells"]) == 1

    def test_queue_sweep_quarantines_and_runs(self, tmp_path, capsys):
        path = self.write(tmp_path, [])
        code = main([*SWEEP, "--jobs", "2", "--checkpoint", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "computed" in out
        assert os.path.exists(path + ".corrupt")
        with open(path) as fh:
            assert len(json.load(fh)["cells"]) == 1
