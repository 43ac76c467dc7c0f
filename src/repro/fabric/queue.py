"""The record directory of a sweep: one durable record per finished cell.

Every finished cell, whichever process ran it — a fleet worker or the
supervisor's own — is written exactly once, as a record here, keyed by
the digest of its content-addressed
:func:`~repro.runner.supervisor.cell_key`::

    <root>/
      spec.json                 the trial function's module:qualname ref
      cells/<dd>/<digest>.json  completed-cell records (sharded by the
                                first two digest hex chars)
      crashes/worker-<i>.json   one dump per worker that died abnormally

A record is published (framed, fsynced, renamed into place:
:mod:`repro.fabric.records`) *before* anyone is told of it, so a record
on disk is a finished cell whichever process dies next; a torn one is
moved aside to ``*.corrupt`` and its cell is open again.  The sweep
checkpoint is only a view of these records, so a grid resumes every
cell it shares with the directory, however the grid has grown or shrunk.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Any, Collection, Dict, Iterator, Optional

from repro.errors import ConfigurationError, CorruptRecordError, FabricError
from repro.fabric import records
from repro.fabric.chaos import chaos_point

__all__ = ["WorkQueue", "cell_digest", "format_fn_ref",
           "validate_plain_params"]

SPEC_NAME = "spec.json"


def format_fn_ref(fn: Any) -> str:
    """``fn``'s ``module:qualname`` ref, as the spec stores it (a fleet
    also needs it to import back to ``fn``: ``fn_reference``)."""
    module = getattr(fn, "__module__", None) or "?"
    qualname = getattr(fn, "__qualname__", None) or type(fn).__qualname__
    return f"{module}:{qualname}"


def cell_digest(key: str) -> str:
    """Short, filename-safe digest of a content-addressed cell key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class WorkQueue:
    """One sweep's record directory.  See the module docstring."""

    def __init__(self, root: str, fn_ref: Optional[str]):
        self.root = os.path.abspath(root)
        self.fn_ref = fn_ref
        #: Torn records this process found and moved aside.
        self.corrupt_records = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str, fn_ref: Optional[str] = None) -> "WorkQueue":
        """Create the directory, or attach to one made for ``fn_ref``.

        A directory made for another trial function is a
        :class:`~repro.errors.FabricError`, never a mix of results.
        """
        root = os.path.abspath(root)
        spec_path = os.path.join(root, SPEC_NAME)
        if os.path.exists(spec_path):
            queue = cls.open(root)
            if fn_ref is not None and queue.fn_ref not in (None, fn_ref):
                raise FabricError(
                    f"queue {root!r} was built for trial function "
                    f"{queue.fn_ref!r}, not {fn_ref!r}")
            return queue
        made = not os.path.isdir(root)
        try:
            for sub in ("cells", "crashes"):
                os.makedirs(os.path.join(root, sub), exist_ok=True)
            records.write_record(spec_path, {"version": 1, "fn": fn_ref})
            if made:
                # The spec's write synced the root's entries; this syncs
                # the root's own entry in its parent.
                records.fsync_directory(os.path.dirname(root))
        except OSError as exc:
            raise FabricError(
                f"cannot create queue directory {root!r}: {exc}") from exc
        return cls(root, fn_ref)

    @staticmethod
    def discard(root: str) -> None:
        """Forget the sweep a record directory holds (``resume=False``).

        Removes the spec and every completed-cell record, so the next
        :meth:`create` builds the directory anew and every cell runs
        again.  ``crashes/`` stays: it is post-mortem evidence, not state.
        """
        try:
            os.unlink(os.path.join(root, SPEC_NAME))
        except FileNotFoundError:
            pass
        shutil.rmtree(os.path.join(root, "cells"), ignore_errors=True)

    @classmethod
    def open(cls, root: str) -> "WorkQueue":
        """Attach to an existing record directory."""
        root = os.path.abspath(root)
        try:
            spec = records.read_record(os.path.join(root, SPEC_NAME))
        except FileNotFoundError:
            raise FabricError(
                f"{root!r} is not a fabric queue (no {SPEC_NAME})") from None
        if spec.get("version") != 1:
            raise FabricError(
                f"queue {root!r} has unsupported spec version "
                f"{spec.get('version')!r}")
        return cls(root, spec.get("fn"))

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def _cell_path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", digest[:2], f"{digest}.json")

    def completed_record(self, digest: str) -> Optional[Dict[str, Any]]:
        """The cell's completed record, or None while it is open (a
        torn record is moved aside to ``*.corrupt`` and reads as open)."""
        path = self._cell_path(digest)
        try:
            return records.read_record(path)
        except FileNotFoundError:
            return None
        except CorruptRecordError:
            if records.quarantine_corrupt(path) is not None:
                self.corrupt_records += 1
            return None

    def completed_records(self, skip: Collection[str] = ()
                          ) -> Iterator[Dict[str, Any]]:
        """Every completed record whose digest is not in ``skip``."""
        cells = os.path.join(self.root, "cells")
        shards = os.listdir(cells) if os.path.isdir(cells) else []
        for shard in sorted(shards):
            for name in sorted(os.listdir(os.path.join(cells, shard))):
                digest, ext = os.path.splitext(name)
                if ext == ".json" and digest not in skip:
                    record = self.completed_record(digest)
                    if record is not None:
                        yield record

    def complete(self, digest: str, record: Dict[str, Any],
                 worker_index: Optional[int] = None) -> None:
        """Publish a finished cell's record (durable on return)."""
        path = self._cell_path(digest)
        shard = os.path.dirname(path)
        if not os.path.isdir(shard):
            # A new shard's entry in cells/ must be durable too, or a
            # power cut can drop the shard with the record in it.
            os.makedirs(shard, exist_ok=True)
            records.fsync_directory(os.path.dirname(shard))
        records.write_record(
            path, record,
            chaos=lambda: chaos_point("complete-pre-rename", worker_index))


def validate_plain_params(params: Dict[str, Any]) -> None:
    """Reject params the fabric cannot round-trip through JSON.

    The serial supervisor can key complex objects (``to_dict()``
    content) without rehydrating them, because it still holds the
    original object.  A spawned worker only ever sees what comes over
    its pipe, so fleet sweeps require JSON-native parameter values.
    """
    def check(value: Any, where: str) -> None:
        if value is None or isinstance(value, (bool, int, float, str)):
            return
        if isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                check(item, f"{where}[{i}]")
            return
        if isinstance(value, dict):
            for k, v in value.items():
                check(v, f"{where}[{k!r}]")
            return
        raise ConfigurationError(
            f"fabric sweep parameter {where} has non-JSON type "
            f"{type(value).__name__}; spawned workers rebuild calls from "
            f"plain data alone, so fabric cells must use JSON-native "
            f"parameter values")

    for name, value in params.items():
        check(value, name)
