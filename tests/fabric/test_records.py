"""Tests for the framed-record layer: framing, torn writes, quarantine."""

import os

import pytest

from repro.errors import CorruptRecordError
from repro.fabric import records


class TestFraming:
    def test_roundtrip(self):
        payload = {"b": 2, "a": [1, "x"], "nested": {"k": None}}
        assert records.unframe(records.frame(payload)) == payload

    def test_header_is_one_line(self):
        blob = records.frame({"k": "v"})
        header = blob.split(b"\n", 1)[0].decode("ascii")
        assert header.startswith("#repro-fabric v1 ")
        assert "len=" in header and "sha256=" in header

    def test_truncated_payload_is_torn(self):
        blob = records.frame({"key": "a" * 100})
        with pytest.raises(CorruptRecordError, match="torn"):
            records.unframe(blob[:-10])

    def test_flipped_byte_is_checksum_mismatch(self):
        blob = bytearray(records.frame({"key": "aaaa"}))
        blob[-1] ^= 0xFF
        with pytest.raises(CorruptRecordError, match="checksum"):
            records.unframe(bytes(blob))

    def test_missing_header_rejected(self):
        with pytest.raises(CorruptRecordError, match="header"):
            records.unframe(b'{"just": "json"}\n')

    def test_non_object_payload_rejected(self):
        import hashlib
        body = b"[1, 2, 3]"
        digest = hashlib.sha256(body).hexdigest()
        blob = f"#repro-fabric v1 len={len(body)} sha256={digest}\n".encode() + body
        with pytest.raises(CorruptRecordError, match="object"):
            records.unframe(blob)


class TestWriteRecord:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "r.json")
        records.write_record(path, {"v": 1})
        assert records.read_record(path) == {"v": 1}

    def test_no_tempfile_left_behind(self, tmp_path):
        records.write_record(str(tmp_path / "r.json"), {"v": 1})
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_non_exclusive_last_writer_wins(self, tmp_path):
        path = str(tmp_path / "r.json")
        records.write_record(path, {"v": 1})
        records.write_record(path, {"v": 2})
        assert records.read_record(path)["v"] == 2

    def test_chaos_callable_runs_before_publication(self, tmp_path):
        path = str(tmp_path / "r.json")
        seen = {}

        def probe():
            seen["published"] = os.path.exists(path)

        records.write_record(path, {"v": 1}, chaos=probe)
        assert seen["published"] is False  # the torn-completion window
        assert records.read_record(path) == {"v": 1}


class TestQuarantine:
    def test_corrupt_file_moved_aside(self, tmp_path):
        path = str(tmp_path / "r.json")
        with open(path, "wb") as fh:
            fh.write(b"#repro-fabric v1 len=9999 sha256=00\ntorn")
        with pytest.raises(CorruptRecordError):
            records.read_record(path)
        moved = records.quarantine_corrupt(path)
        assert moved == path + ".corrupt"
        assert not os.path.exists(path)
        assert os.path.exists(moved)

    def test_vanished_file_returns_none(self, tmp_path):
        assert records.quarantine_corrupt(str(tmp_path / "gone.json")) is None
