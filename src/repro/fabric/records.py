"""Framed, atomically-written JSON records for the sweep fabric.

Every durable fabric artifact (queue spec, completed-cell record,
crash dump) is one file in this format::

    #repro-fabric v1 len=<payload bytes> sha256=<hex digest>\\n
    <payload: UTF-8 JSON, exactly len bytes>

The file is published by :func:`publish` — temp file, ``fsync``,
``rename()``, directory ``fsync`` — so a reader sees either nothing or a
whole record.  :func:`publish` is the program's only such sequence: the
sweep's checkpoint view goes through it too, with plain JSON bytes.  If
a record *is* torn anyway (power loss, or a chaos test killing a writer
mid-publication), :func:`read_record` raises
:class:`~repro.errors.CorruptRecordError` and the caller moves the file
aside to ``<name>.corrupt`` with :func:`quarantine_corrupt` instead of
trusting — or crashing on — half a record.  Record identity is content,
not timestamps: nothing here reads a clock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Dict, Optional

from repro.errors import CorruptRecordError

__all__ = ["publish", "write_record", "read_record", "quarantine_corrupt",
           "fsync_directory", "frame", "unframe", "json_default"]

_MAGIC = "#repro-fabric v1 "


def json_default(value: Any) -> Any:
    """JSON fallback for cell *results* (records and the checkpoint).

    Results are not identity-bearing, so unknown objects degrade to a
    readable form instead of failing the write.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    return repr(value)


def frame(payload: Dict[str, Any]) -> bytes:
    """Serialize ``payload`` with the length+checksum header."""
    body = json.dumps(payload, sort_keys=True,
                      default=json_default).encode("utf-8")
    digest = hashlib.sha256(body).hexdigest()
    header = f"{_MAGIC}len={len(body)} sha256={digest}\n".encode("ascii")
    return header + body


def unframe(blob: bytes, name: str = "<record>") -> Dict[str, Any]:
    """Parse and verify a framed record; raise ``CorruptRecordError``."""
    newline = blob.find(b"\n")
    if newline < 0 or not blob.startswith(_MAGIC.encode("ascii")):
        raise CorruptRecordError(f"{name}: missing fabric record header")
    try:
        fields = dict(
            part.split("=", 1)
            for part in blob[len(_MAGIC):newline].decode("ascii").split())
        length = int(fields["len"])
        digest = fields["sha256"]
    except (KeyError, UnicodeDecodeError, ValueError) as exc:
        raise CorruptRecordError(f"{name}: unparsable record header") from exc
    body = blob[newline + 1:]
    if len(body) != length:
        raise CorruptRecordError(
            f"{name}: torn record — header says {length} payload bytes, "
            f"file holds {len(body)}")
    actual = hashlib.sha256(body).hexdigest()
    if actual != digest:
        raise CorruptRecordError(
            f"{name}: checksum mismatch — record bytes were damaged "
            f"(expected sha256 {digest[:12]}…, got {actual[:12]}…)")
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise CorruptRecordError(
            f"{name}: checksummed payload is not JSON") from exc
    if not isinstance(payload, dict):
        raise CorruptRecordError(f"{name}: record payload must be a JSON object")
    return payload


def fsync_directory(directory: str) -> None:
    """Flush a directory's entry table so a just-renamed file survives
    power loss.  Best-effort: some filesystems refuse directory fds."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def publish(path: str, data: bytes,
            chaos: Optional[Callable[[], None]] = None) -> None:
    """Atomically replace ``path`` with ``data`` (last writer wins).

    ``data`` goes to a tempfile in the same directory and is fsynced
    *before* the rename — rename-over is only atomic for bytes already
    on disk — and the directory is fsynced *after* it, so a crash right
    after this call can neither tear the file nor un-happen the rename.
    ``chaos`` (tests only) runs between the tempfile's fsync and the
    rename.  A failed write leaves no tempfile behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        if chaos is not None:
            chaos()
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def write_record(path: str, payload: Dict[str, Any],
                 chaos: Optional[Callable[[], None]] = None) -> None:
    """Atomically publish ``payload`` as a framed record at ``path``
    (:func:`publish`)."""
    publish(path, frame(payload), chaos)


def read_record(path: str) -> Dict[str, Any]:
    """Load and verify the framed record at ``path``.

    Raises ``OSError`` when the file is missing/unreadable and
    :class:`CorruptRecordError` when it fails framing validation.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    return unframe(blob, name=os.path.basename(path))


def quarantine_corrupt(path: str) -> Optional[str]:
    """Move a corrupt record aside to ``<path>.corrupt`` (atomic).

    Returns the quarantine path, or ``None`` when the file vanished
    first (another process already quarantined or replaced it).
    """
    target = path + ".corrupt"
    try:
        os.replace(path, target)
    except FileNotFoundError:
        return None
    fsync_directory(os.path.dirname(os.path.abspath(path)))
    return target
