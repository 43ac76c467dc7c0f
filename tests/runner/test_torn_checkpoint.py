"""Torn-write durability and recovery for the sweep checkpoint.

Satellite of ISSUE 6: checkpoint writes must fsync the temp file
*before* the atomic rename and the parent directory *after* it, and a
checkpoint torn by a crash must either fail loudly (the historical
default) or — on the fabric path — be quarantined to ``*.corrupt`` and
rebuilt from completed-cell records.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.runner import supervisor as supervisor_module
from repro.runner.supervisor import SweepSupervisor


def square(x):
    return {"y": x * x}


class TestWriteDurability:
    def test_temp_file_fsynced_before_rename(self, tmp_path, monkeypatch):
        """The data must be on disk before the rename publishes it."""
        order = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            order.append("fsync")
            return real_fsync(fd)

        def spy_replace(src, dst):
            order.append("replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(square, checkpoint_path=path).run_cell(x=3)
        assert "fsync" in order and "replace" in order
        assert order.index("fsync") < order.index("replace")

    def test_parent_directory_fsynced_after_rename(self, tmp_path,
                                                   monkeypatch):
        """Without the dir fsync a power cut can quietly undo the rename."""
        synced = []
        monkeypatch.setattr(supervisor_module, "_fsync_directory",
                            synced.append)
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(square, checkpoint_path=path).run_cell(x=3)
        assert synced == [str(tmp_path)]

    def test_failed_write_leaves_no_temp_litter(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        path = str(tmp_path / "sweep.json")
        sup = SweepSupervisor(square, checkpoint_path=path)
        with pytest.raises(OSError, match="disk full"):
            sup.run_cell(x=3)
        assert [p.name for p in tmp_path.iterdir()] == []


class TestTornRecovery:
    def tear(self, tmp_path):
        """Write a valid checkpoint, then tear it mid-JSON."""
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(square, checkpoint_path=path).run_cell(x=3)
        with open(path, "r+") as fh:
            fh.truncate(len(fh.read()) // 2)
        return path

    def test_default_mode_raises_loudly(self, tmp_path):
        path = self.tear(tmp_path)
        with pytest.raises(ConfigurationError, match="unreadable"):
            SweepSupervisor(square, checkpoint_path=path)

    def test_quarantine_mode_parks_evidence_and_resumes_empty(self, tmp_path):
        path = self.tear(tmp_path)
        sup = SweepSupervisor(square, checkpoint_path=path,
                              on_corrupt="quarantine")
        assert sup.completed_cells == 0
        assert os.path.exists(path + ".corrupt")  # postmortem evidence
        # The sweep proceeds normally and rewrites a clean checkpoint.
        outcome = sup.run_cell(x=3)
        assert outcome.ok and not outcome.from_checkpoint
        with open(path) as fh:
            assert len(json.load(fh)["cells"]) == 1

    def test_quarantine_mode_handles_bad_version_too(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        with open(path, "w") as fh:
            json.dump({"version": 99, "cells": {}}, fh)
        sup = SweepSupervisor(square, checkpoint_path=path,
                              on_corrupt="quarantine")
        assert sup.completed_cells == 0
        assert os.path.exists(path + ".corrupt")

    def test_intact_checkpoint_unaffected_by_quarantine_mode(self, tmp_path):
        path = str(tmp_path / "sweep.json")
        SweepSupervisor(square, checkpoint_path=path).run_cell(x=3)
        sup = SweepSupervisor(square, checkpoint_path=path,
                              on_corrupt="quarantine")
        assert sup.completed_cells == 1
        assert not os.path.exists(path + ".corrupt")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="on_corrupt"):
            SweepSupervisor(square,
                            checkpoint_path=str(tmp_path / "c.json"),
                            on_corrupt="ignore")


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
        path = self.write(tmp_path, payload)
        with pytest.raises(ConfigurationError,
                           match="unreadable checkpoint .*not a JSON object"):
            SweepSupervisor(square, checkpoint_path=path)

    @pytest.mark.parametrize("payload", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_quarantine_mode_parks_it(self, tmp_path, payload):
        path = self.write(tmp_path, payload)
        sup = SweepSupervisor(square, checkpoint_path=path,
                              on_corrupt="quarantine")
        assert sup.completed_cells == 0
        assert os.path.exists(path + ".corrupt")

    @pytest.mark.parametrize("payload", NOT_OBJECTS, ids=NOT_OBJECT_IDS)
    def test_serial_sweep_exits_2(self, tmp_path, capsys, payload):
        path = self.write(tmp_path, payload)
        code = main([*SWEEP, "--checkpoint", path])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines()[-1].startswith("error: unreadable checkpoint")
        assert "computed" not in out

    def test_queue_sweep_quarantines_and_runs(self, tmp_path, capsys):
        path = self.write(tmp_path, [])
        code = main([*SWEEP, "--jobs", "2", "--checkpoint", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "computed" in out
        assert os.path.exists(path + ".corrupt")
        with open(path) as fh:
            assert len(json.load(fh)["cells"]) == 1
