"""The filesystem-backed, lease-based sweep work queue.

One :class:`WorkQueue` directory is the entire coordination state of a
distributed sweep — there is no broker process to crash.  Every cell of
the grid is identified by its content-addressed
:func:`~repro.runner.supervisor.cell_key` (hashed to a short digest for
filenames) and moves through the protocol purely via atomic filesystem
operations on framed records (:mod:`repro.fabric.records`):

Layout::

    <root>/
      spec.json                    grid definition: cells, fn ref, options
      cells/<dd>/<digest>.json     completed-cell records (sharded by
                                   the first two digest hex chars)
      leases/<digest>.json         live leases (monotonic-clock expiry)
      failures/<digest>.<n>.json   one record per failed lease
      quarantine/<digest>.json     poison cells parked after K failures
      crashes/...                  crash dumps: expired leases renamed
                                   aside, worker tracebacks, death notes
      events.log                   append-only JSONL transition log

Transitions and their atomicity:

* **claim** — publish a lease via tempfile + ``os.link`` (``O_EXCL``
  semantics): exactly one contender wins, and no partially-written
  lease is ever visible.
* **steal** — an expired lease is *renamed* into ``crashes/`` (only one
  stealer's rename succeeds), a failure record is written for the dead
  attempt, and the stealer claims normally.  This doubles as the crash
  dump for a worker that was SIGKILLed mid-cell.
* **complete** — the result record is fsynced and renamed into
  ``cells/``; duplicate completions (a worker that lost its lease while
  suspended, then finished anyway) are harmless because cell results
  are deterministic functions of their params.
* **fail / quarantine** — each failed lease appends a numbered failure
  record; at ``max_lease_failures`` the cell is parked in
  ``quarantine/`` with its crash dumps instead of wedging the sweep.
  Failures another lease cannot heal (a configuration mistake, a cell
  whose reseeded attempts are all spent) quarantine immediately.

Lease expiry compares ``time.monotonic()`` readings across processes,
which is valid on a shared host (the clock is boot-anchored and immune
to NTP steps); REPRO105 enforces that no fabric code falls back to the
wall clock.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, CorruptRecordError, FabricError
from repro.fabric import records
from repro.fabric.chaos import chaos_point

__all__ = ["Lease", "WorkQueue", "cell_digest", "check_lease_options"]

SPEC_NAME = "spec.json"
EVENTS_NAME = "events.log"

#: Subdirectories holding per-cell protocol state (``crashes/`` holds
#: evidence, not state).
STATE_DIRS = ("cells", "leases", "failures", "quarantine")

#: Default seconds a lease stays valid without renewal.
DEFAULT_LEASE_SECONDS = 10.0
#: Default failed-lease budget before a cell is quarantined as poison.
DEFAULT_MAX_LEASE_FAILURES = 3


def check_lease_options(lease_seconds: float,
                        max_lease_failures: int) -> None:
    """Reject lease settings under which live workers get robbed.

    A lease that is already expired when it is written (horizon <= 0 or
    nan) makes every running cell look abandoned: peers steal it, the
    heartbeat spins, and healthy cells collect "lease expired" failures
    on their way to quarantine.  A failed-lease budget below 1
    quarantines a cell on its first lost lease.
    """
    if not (math.isfinite(lease_seconds) and lease_seconds > 0):
        raise ConfigurationError(
            f"lease_seconds must be a finite number > 0, got {lease_seconds}")
    if max_lease_failures < 1:
        raise ConfigurationError(
            f"max_lease_failures must be >= 1, got {max_lease_failures}")


def cell_digest(key: str) -> str:
    """Short, filename-safe digest of a content-addressed cell key."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


@dataclass
class Lease:
    """A worker's claim on one cell."""

    digest: str
    key: str
    params: Dict[str, Any]
    worker: str
    token: str
    attempt: int          # prior failed leases for this cell
    expires_mono: float
    path: str = field(repr=False, default="")


class WorkQueue:
    """One sweep's shared queue directory.  See the module docstring."""

    def __init__(self, root: str, spec: Dict[str, Any]):
        self.root = os.path.abspath(root)
        self._spec = spec
        options = spec.get("options", {})
        self.lease_seconds = float(
            options.get("lease_seconds", DEFAULT_LEASE_SECONDS))
        self.max_lease_failures = int(
            options.get("max_lease_failures", DEFAULT_MAX_LEASE_FAILURES))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str, cells: Dict[str, Dict[str, Any]],
               fn_ref: Optional[str] = None,
               options: Optional[Dict[str, Any]] = None) -> "WorkQueue":
        """Create the queue directory, or attach to a matching one.

        ``cells`` maps each cell *key* to its (JSON-native) params.
        Attaching to an existing queue requires the same cell set and
        trial function — anything else is a different sweep and gets a
        loud :class:`~repro.errors.FabricError` instead of silently
        mixing results.
        """
        options = dict(options or {})
        check_lease_options(
            options.get("lease_seconds", DEFAULT_LEASE_SECONDS),
            options.get("max_lease_failures", DEFAULT_MAX_LEASE_FAILURES))
        root = os.path.abspath(root)
        spec_path = os.path.join(root, SPEC_NAME)
        digests: Dict[str, Dict[str, Any]] = {}
        for key, params in cells.items():
            digests[cell_digest(key)] = {"key": key, "params": params}
        if os.path.exists(spec_path):
            queue = cls.open(root)
            have = set(queue._spec.get("cells", {}))
            want = set(digests)
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
        spec = {
            "version": 1,
            "fn": fn_ref,
            "options": options,
            "cells": digests,
        }
        try:
            for sub in (*STATE_DIRS, "crashes"):
                os.makedirs(os.path.join(root, sub), exist_ok=True)
            records.write_record(spec_path, spec)
        except OSError as exc:
            raise FabricError(
                f"cannot create queue directory {root!r}: {exc}") from exc
        return cls(root, spec)

    @staticmethod
    def discard(root: str) -> None:
        """Forget the sweep a queue directory holds (``resume=False``).

        Removes the spec, the event log and every cell's protocol state,
        so the next :meth:`create` builds the queue anew and re-runs
        every cell.  ``crashes/`` stays: it is post-mortem evidence, not
        protocol state.
        """
        for name in (SPEC_NAME, EVENTS_NAME):
            try:
                os.unlink(os.path.join(root, name))
            except FileNotFoundError:
                pass
        for sub in STATE_DIRS:
            shutil.rmtree(os.path.join(root, sub), ignore_errors=True)

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
    # Paths
    # ------------------------------------------------------------------
    def _cell_path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", digest[:2], f"{digest}.json")

    def _lease_path(self, digest: str) -> str:
        return os.path.join(self.root, "leases", f"{digest}.json")

    def _quarantine_path(self, digest: str) -> str:
        return os.path.join(self.root, "quarantine", f"{digest}.json")

    def _failure_path(self, digest: str, n: int) -> str:
        return os.path.join(self.root, "failures", f"{digest}.{n}.json")

    @property
    def fn_ref(self) -> Optional[str]:
        return self._spec.get("fn")

    @property
    def options(self) -> Dict[str, Any]:
        return dict(self._spec.get("options", {}))

    @property
    def digests(self) -> List[str]:
        return list(self._spec.get("cells", {}))

    def cell_info(self, digest: str) -> Dict[str, Any]:
        info = self._spec["cells"].get(digest)
        if info is None:
            raise FabricError(f"unknown cell digest {digest!r}")
        return info

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def completed(self) -> Dict[str, Dict[str, Any]]:
        """All valid completed-cell records, by digest.

        A record that fails framing validation is quarantined to
        ``*.corrupt`` (and logged) so the cell goes back to pending —
        graceful degradation instead of a poisoned merge.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for digest in self._spec.get("cells", {}):
            record = self.completed_record(digest)
            if record is not None:
                out[digest] = record
        return out

    def completed_record(self, digest: str) -> Optional[Dict[str, Any]]:
        path = self._cell_path(digest)
        try:
            return records.read_record(path)
        except FileNotFoundError:
            return None
        except CorruptRecordError as exc:
            quarantined = records.quarantine_corrupt(path)
            if quarantined is not None:
                self.log_event("corrupt_record", cell=digest,
                               file=os.path.basename(quarantined),
                               error=str(exc))
            return None

    def quarantined(self) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for digest in self._spec.get("cells", {}):
            path = self._quarantine_path(digest)
            try:
                out[digest] = records.read_record(path)
            except FileNotFoundError:
                continue
            except CorruptRecordError:
                # A torn quarantine record: the failures that led here
                # still exist, so re-quarantine from them.
                records.quarantine_corrupt(path)
                failures = self.failures(digest)
                if len(failures) >= self.max_lease_failures:
                    self._quarantine(digest, failures)
                    try:
                        out[digest] = records.read_record(path)
                    except (FileNotFoundError, CorruptRecordError):
                        continue
        return out

    def failures(self, digest: str) -> List[Dict[str, Any]]:
        """Valid failure records for one cell, in slot order."""
        out = []
        for n in range(1, 10_000):
            path = self._failure_path(digest, n)
            try:
                out.append(records.read_record(path))
            except FileNotFoundError:
                break
            except CorruptRecordError:
                records.quarantine_corrupt(path)
                out.append({"kind": "corrupt", "error": "torn failure record"})
        return out

    def status(self) -> Dict[str, int]:
        done = len(self.completed())
        quarantined = len(self.quarantined())
        leased = 0
        for digest in self._spec.get("cells", {}):
            if os.path.exists(self._lease_path(digest)):
                leased += 1
        total = len(self._spec.get("cells", {}))
        return {
            "total": total,
            "done": done,
            "quarantined": quarantined,
            "leased": leased,
            "pending": max(0, total - done - quarantined),
        }

    def drained(self) -> bool:
        """True when every cell is either completed or quarantined."""
        for digest in self._spec.get("cells", {}):
            if os.path.exists(self._cell_path(digest)):
                continue
            if os.path.exists(self._quarantine_path(digest)):
                continue
            if self.completed_record(digest) is None:
                return False
        return True

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def claim(self, worker: str, worker_index: Optional[int] = None,
              rng: Any = None) -> Optional[Lease]:
        """Claim (or steal) one runnable cell; None when nothing claimable.

        ``rng`` (a seeded ``random.Random``) shuffles the scan order so
        concurrent workers spread across the grid instead of racing for
        the same head cell — the work-stealing half of the protocol is
        the expired-lease takeover below.
        """
        chaos_point("claim", worker_index)
        digests = self.digests
        if rng is not None:
            rng.shuffle(digests)
        now = time.monotonic()
        for digest in digests:
            if os.path.exists(self._cell_path(digest)):
                continue
            if os.path.exists(self._quarantine_path(digest)):
                continue
            lease_path = self._lease_path(digest)
            stolen = False
            holder: Optional[Dict[str, Any]] = None
            try:
                holder = records.read_record(lease_path)
            except FileNotFoundError:
                holder = None
            except CorruptRecordError:
                holder = {"worker": "?", "token": "?", "expires_mono": -1.0}
            if holder is not None:
                if float(holder.get("expires_mono", 0.0)) > now:
                    continue  # validly held
                if not self._take_expired_lease(digest, lease_path, holder):
                    continue  # another stealer won the rename
                stolen = True
                count = self._record_failure(digest, {
                    "kind": "lease_expired",
                    "error": (f"lease held by {holder.get('worker', '?')!r} "
                              f"expired without completion (worker presumed "
                              f"dead)"),
                    "dead_lease": holder,
                    "observed_by": worker,
                })
                self.log_event("expire", cell=digest, worker=worker,
                               dead_worker=holder.get("worker"),
                               failures=count)
                if count >= self.max_lease_failures:
                    self._quarantine(digest, self.failures(digest))
                    continue
            attempt = self._failure_count(digest)
            token = f"{worker}:{os.getpid()}:{time.monotonic_ns()}"
            payload = {
                "cell": digest,
                "worker": worker,
                "worker_index": worker_index,
                "pid": os.getpid(),
                "token": token,
                "attempt": attempt,
                "acquired_mono": now,
                "expires_mono": now + self.lease_seconds,
            }
            if not records.write_record(lease_path, payload, exclusive=True):
                continue  # lost the claim race
            self.log_event("steal" if stolen else "claim", cell=digest,
                           worker=worker, attempt=attempt)
            info = self.cell_info(digest)
            return Lease(digest=digest, key=info["key"],
                         params=dict(info["params"]), worker=worker,
                         token=token, attempt=attempt,
                         expires_mono=payload["expires_mono"],
                         path=lease_path)
        return None

    def _take_expired_lease(self, digest: str, lease_path: str,
                            holder: Dict[str, Any]) -> bool:
        """Atomically move an expired lease into ``crashes/``.

        The renamed lease *is* the crash dump for the worker that died
        holding it.  Exactly one stealer's rename succeeds.
        """
        dump = os.path.join(
            self.root, "crashes",
            f"{digest}.lease.{time.monotonic_ns():x}.expired.json")
        try:
            os.rename(lease_path, dump)
        except FileNotFoundError:
            return False
        records.fsync_directory(os.path.join(self.root, "crashes"))
        return True

    def renew(self, lease: Lease, worker_index: Optional[int] = None) -> bool:
        """Heartbeat: extend the lease.  False when the lease was lost."""
        chaos_point("renew", worker_index)
        try:
            holder = records.read_record(lease.path)
        except (FileNotFoundError, CorruptRecordError):
            return False
        if holder.get("token") != lease.token:
            return False
        holder["expires_mono"] = time.monotonic() + self.lease_seconds
        records.write_record(lease.path, holder)
        lease.expires_mono = holder["expires_mono"]
        self.log_event("renew", cell=lease.digest, worker=lease.worker)
        return True

    def complete(self, lease: Lease, result: Any, attempts: int,
                 elapsed_seconds: float,
                 worker_index: Optional[int] = None) -> None:
        """Publish a completed cell and release the lease."""
        payload = {
            "key": lease.key,
            "params": lease.params,
            "result": result,
            "attempts": attempts,
            "elapsed_seconds": elapsed_seconds,
            "worker": lease.worker,
            "lease_attempt": lease.attempt,
        }
        path = self._cell_path(lease.digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        records.write_record(
            path, payload,
            chaos=lambda: chaos_point("complete-pre-rename", worker_index))
        chaos_point("complete", worker_index)
        self._release_lease_file(lease)
        self.log_event("complete", cell=lease.digest, worker=lease.worker,
                       attempts=attempts)

    def fail(self, lease: Lease, error: str,
             traceback_text: Optional[str] = None,
             fatal: bool = False,
             attempts: Optional[int] = None) -> str:
        """Record a failed lease; returns ``"retry"`` or ``"quarantined"``.

        ``fatal`` marks failures another lease cannot heal: the cell is
        parked immediately with its crash dump instead of burning the
        remaining lease budget.  That is a configuration mistake, or a
        cell whose retry-with-reseed attempts are all spent — then
        ``attempts`` is how many it had, for its FAILED row.
        """
        count = self._record_failure(lease.digest, {
            "kind": "fatal" if fatal else "transient",
            "error": error,
            "attempts": attempts,
            "traceback": traceback_text,
            "worker": lease.worker,
            "lease_attempt": lease.attempt,
        })
        self._release_lease_file(lease)
        self.log_event("fail", cell=lease.digest, worker=lease.worker,
                       error=error[:200], failures=count, fatal=fatal)
        if fatal or count >= self.max_lease_failures:
            self._quarantine(lease.digest, self.failures(lease.digest))
            return "quarantined"
        return "retry"

    def seed_completed(self, key: str, record: Dict[str, Any]) -> bool:
        """Pre-mark a cell done (checkpoint resume).  First writer wins."""
        digest = cell_digest(key)
        if digest not in self._spec.get("cells", {}):
            return False
        path = self._cell_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        published = records.write_record(path, record, exclusive=True)
        if published:
            self.log_event("seed", cell=digest)
        return published

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _release_lease_file(self, lease: Lease) -> None:
        try:
            holder = records.read_record(lease.path)
        except (FileNotFoundError, CorruptRecordError):
            return
        if holder.get("token") != lease.token:
            return  # stolen while we ran; the thief owns the file now
        try:
            os.unlink(lease.path)
        except FileNotFoundError:
            pass

    def _failure_count(self, digest: str) -> int:
        n = 0
        while os.path.exists(self._failure_path(digest, n + 1)):
            n += 1
        return n

    def _record_failure(self, digest: str, payload: Dict[str, Any]) -> int:
        """Append a numbered failure record; returns the new count."""
        payload = dict(payload, cell=digest)
        n = self._failure_count(digest)
        while True:
            n += 1
            if records.write_record(self._failure_path(digest, n), payload,
                                    exclusive=True):
                return n

    def _quarantine(self, digest: str, failures: List[Dict[str, Any]]) -> None:
        info = self.cell_info(digest)
        payload = {
            "key": info["key"],
            "params": info["params"],
            "failure_count": len(failures),
            "failures": failures,
            "last_error": failures[-1].get("error") if failures else None,
            "attempts": failures[-1].get("attempts") if failures else None,
        }
        if records.write_record(self._quarantine_path(digest), payload,
                                exclusive=True):
            self.log_event("quarantine", cell=digest,
                           failures=len(failures))

    # ------------------------------------------------------------------
    # Event log
    # ------------------------------------------------------------------
    def log_event(self, ev: str, **fields: Any) -> None:
        """Append one transition to the shared event log.

        Single ``write()`` with ``O_APPEND``: concurrent writers on a
        local filesystem do not interleave short appends.  The log is
        observability input, not protocol state — a torn final line is
        skipped by :meth:`tally`.
        """
        line = json.dumps({"ev": ev, **fields}, sort_keys=True) + "\n"
        fd = os.open(os.path.join(self.root, EVENTS_NAME),
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    def events(self) -> List[Dict[str, Any]]:
        """Parse the event log, skipping torn/unparsable lines."""
        path = os.path.join(self.root, EVENTS_NAME)
        out: List[Dict[str, Any]] = []
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    try:
                        event = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(event, dict) and "ev" in event:
                        out.append(event)
        except FileNotFoundError:
            pass
        return out

    def tally(self) -> Dict[str, int]:
        """Fabric counters derived from the event log.

        These are the observability numbers embedded in checkpoint meta
        (``fabric.leases_claimed``, ``fabric.leases_expired``, ...).
        """
        counts: Dict[str, int] = {}
        for event in self.events():
            counts[event["ev"]] = counts.get(event["ev"], 0) + 1
        return {
            "fabric.leases_claimed": (counts.get("claim", 0)
                                      + counts.get("steal", 0)),
            "fabric.leases_expired": counts.get("expire", 0),
            "fabric.leases_stolen": counts.get("steal", 0),
            "fabric.lease_renewals": counts.get("renew", 0),
            "fabric.retries": counts.get("fail", 0) + counts.get("expire", 0),
            "fabric.failures": counts.get("fail", 0),
            "fabric.quarantined": counts.get("quarantine", 0),
            "fabric.completions": counts.get("complete", 0),
            "fabric.corrupt_records": counts.get("corrupt_record", 0),
            "fabric.worker_deaths": counts.get("worker_death", 0),
        }


def validate_plain_params(params: Dict[str, Any]) -> None:
    """Reject params the fabric cannot round-trip through JSON.

    The serial supervisor can key complex objects (``to_dict()``
    content) without rehydrating them, because it still holds the
    original object.  A detached fabric worker only ever sees the spec
    file, so fabric sweeps require JSON-native parameter values.
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
            f"{type(value).__name__}; detached workers rebuild calls from "
            f"the queue spec alone, so fabric cells must use JSON-native "
            f"parameter values")

    for name, value in params.items():
        check(value, name)
