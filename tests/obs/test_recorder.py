"""Unit tests for the flight recorder ring buffer and JSONL round-trip."""

import pytest

from repro.errors import ObsError
from repro.obs import FlightRecorder, read_jsonl


def event(kind="drop", t=0.0, **extra):
    payload = {"t": t, "kind": kind, "comp": "bottleneck"}
    payload.update(extra)
    return payload


class TestRingBuffer:
    def test_capacity_bounds_memory(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record(event(t=float(i), seq=i))
        assert len(rec) == 3
        assert rec.recorded == 5
        assert rec.truncated
        assert [e["seq"] for e in rec.events()] == [2, 3, 4]  # oldest evicted

    def test_not_truncated_under_capacity(self):
        rec = FlightRecorder(capacity=10)
        rec.record(event())
        assert not rec.truncated

    def test_capacity_must_be_positive(self):
        with pytest.raises(ObsError, match="positive"):
            FlightRecorder(capacity=0)

    def test_kind_filter(self):
        rec = FlightRecorder(kinds={"drop", "rto"})
        rec.record(event(kind="enqueue"))
        rec.record(event(kind="drop"))
        rec.record(event(kind="rto"))
        assert rec.counts_by_kind() == {"drop": 1, "rto": 1}
        assert rec.recorded == 2  # filtered events never count

    def test_pluggable_filters_all_must_accept(self):
        rec = FlightRecorder(
            filters=[lambda e: e["t"] >= 1.0, lambda e: e.get("flow") == 7])
        rec.record(event(t=0.5, flow=7))   # first filter rejects
        rec.record(event(t=2.0, flow=1))   # second filter rejects
        rec.record(event(t=2.0, flow=7))   # both accept
        assert len(rec) == 1

    def test_events_returns_a_copy(self):
        rec = FlightRecorder()
        rec.record(event())
        snapshot = rec.events()
        rec.record(event())
        assert len(snapshot) == 1


class TestJsonl:
    def test_dump_and_read_roundtrip(self, tmp_path):
        rec = FlightRecorder()
        events = [event(t=0.25, seq=i, flow=1, size=1000) for i in range(4)]
        for e in events:
            rec.record(e)
        path = tmp_path / "sub" / "trace.jsonl"  # directory is created
        assert rec.dump_jsonl(str(path)) == 4
        assert read_jsonl(str(path)) == events

    def test_read_reports_bad_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "kind": "drop", "comp": "q"}\nnot json\n')
        with pytest.raises(ObsError, match=r"bad\.jsonl:2"):
            read_jsonl(str(path))

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0, "kind": "drop", "comp": "q"}\n\n')
        assert len(read_jsonl(str(path))) == 1
