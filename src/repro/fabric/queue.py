"""The queue directory of a fleet sweep: the grid, and one record per
finished cell.

Which worker runs which cell lives only in the supervisor
(:mod:`repro.fabric.supervisor`); the directory holds what must outlive
any process, keyed by the digest of each cell's content-addressed
:func:`~repro.runner.supervisor.cell_key`::

    <root>/
      spec.json                 grid definition: cells, fn ref, options
      cells/<dd>/<digest>.json  completed-cell records (sharded by the
                                first two digest hex chars)
      crashes/worker-<i>.json   one dump per worker that died abnormally

A worker publishes a cell's record (framed, fsynced, renamed into place:
:mod:`repro.fabric.records`) *before* it tells the supervisor, so a
record on disk is a finished cell whichever process dies next; a torn
one is moved aside to ``*.corrupt`` and its cell is open again.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError, CorruptRecordError, FabricError
from repro.fabric import records
from repro.fabric.chaos import chaos_point

__all__ = ["WorkQueue", "cell_digest", "validate_plain_params"]

SPEC_NAME = "spec.json"

#: The options a worker reads from the spec: the supervisor's retry and
#: watchdog budgets, so it runs a cell as the supervisor's process would.
OPTIONS = frozenset({"max_retries", "max_events", "max_wall_seconds"})


def cell_digest(key: str) -> str:
    """Short, filename-safe digest of a content-addressed cell key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


class WorkQueue:
    """One sweep's queue directory.  See the module docstring."""

    def __init__(self, root: str, spec: Dict[str, Any]):
        self.root = os.path.abspath(root)
        self._spec = spec
        #: Torn records this process found and moved aside.
        self.corrupt_records = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str, cells: Dict[str, Dict[str, Any]],
               fn_ref: Optional[str] = None,
               options: Optional[Dict[str, Any]] = None) -> "WorkQueue":
        """Create the queue directory, or attach to a matching one.

        ``cells`` maps each cell *key* to its (JSON-native) params.  A
        directory made for another cell set or trial function is a
        :class:`~repro.errors.FabricError`, never a mix of results; an
        option outside :data:`OPTIONS` is refused before anything is
        made, since no worker would honour it.
        """
        options = dict(options or {})
        unknown = sorted(set(options) - OPTIONS)
        if unknown:
            raise ConfigurationError(
                f"unknown queue option(s) {', '.join(unknown)} (a worker "
                f"honours only {', '.join(sorted(OPTIONS))})")
        root = os.path.abspath(root)
        spec_path = os.path.join(root, SPEC_NAME)
        digests = {cell_digest(key): {"key": key, "params": params}
                   for key, params in cells.items()}
        if os.path.exists(spec_path):
            queue = cls.open(root)
            have, want = set(queue._spec.get("cells", {})), set(digests)
            if have != want:
                raise FabricError(
                    f"queue {root!r} holds a different grid "
                    f"({len(have)} cell(s), expected {len(want)}); use a "
                    f"fresh queue directory for a different sweep")
            if fn_ref is not None and queue.fn_ref not in (None, fn_ref):
                raise FabricError(
                    f"queue {root!r} was built for trial function "
                    f"{queue.fn_ref!r}, not {fn_ref!r}")
            return queue
        spec = {"version": 1, "fn": fn_ref, "options": options,
                "cells": digests}
        try:
            for sub in ("cells", "crashes"):
                os.makedirs(os.path.join(root, sub), exist_ok=True)
            records.write_record(spec_path, spec)
        except OSError as exc:
            raise FabricError(
                f"cannot create queue directory {root!r}: {exc}") from exc
        return cls(root, spec)

    @staticmethod
    def discard(root: str) -> None:
        """Forget the sweep a queue directory holds (``resume=False``).

        Removes the spec and every completed-cell record, so the next
        :meth:`create` builds the queue anew and every cell runs again.
        ``crashes/`` stays: it is post-mortem evidence, not state.
        """
        try:
            os.unlink(os.path.join(root, SPEC_NAME))
        except FileNotFoundError:
            pass
        shutil.rmtree(os.path.join(root, "cells"), ignore_errors=True)

    @classmethod
    def open(cls, root: str) -> "WorkQueue":
        """Attach to an existing queue directory."""
        root = os.path.abspath(root)
        spec_path = os.path.join(root, SPEC_NAME)
        try:
            spec = records.read_record(spec_path)
        except FileNotFoundError:
            raise FabricError(
                f"{root!r} is not a fabric queue (no {SPEC_NAME})") from None
        if spec.get("version") != 1:
            raise FabricError(
                f"queue {root!r} has unsupported spec version "
                f"{spec.get('version')!r}")
        return cls(root, spec)

    # ------------------------------------------------------------------
    # Cells
    # ------------------------------------------------------------------
    def _cell_path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", digest[:2], f"{digest}.json")

    @property
    def fn_ref(self) -> Optional[str]:
        return self._spec.get("fn")

    @property
    def options(self) -> Dict[str, Any]:
        return dict(self._spec.get("options", {}))

    def cell_info(self, digest: str) -> Dict[str, Any]:
        """The cell's ``{"key": ..., "params": ...}`` from the spec."""
        info = self._spec["cells"].get(digest)
        if info is None:
            raise FabricError(f"unknown cell digest {digest!r}")
        return info

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

    def complete(self, digest: str, record: Dict[str, Any],
                 worker_index: Optional[int] = None) -> None:
        """Publish a finished cell's record (durable on return)."""
        path = self._cell_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records.write_record(
            path, record,
            chaos=lambda: chaos_point("complete-pre-rename", worker_index))


def validate_plain_params(params: Dict[str, Any]) -> None:
    """Reject params the fabric cannot round-trip through JSON.

    The serial supervisor can key complex objects (``to_dict()``
    content) without rehydrating them, because it still holds the
    original object.  A spawned worker only ever sees the spec file, so
    fleet sweeps require JSON-native parameter values.
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
            f"the queue spec alone, so fabric cells must use JSON-native "
            f"parameter values")

    for name, value in params.items():
        check(value, name)
