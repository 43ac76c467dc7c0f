"""Tests for the exporters: source sniffing and report rendering."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import (
    load_report_source,
    render_report,
    summarize_snapshot,
    summarize_trace,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TRACE_LINES = [
    {"t": 0.1, "kind": "drop", "comp": "bn:fwd", "flow": 1, "seq": 2,
     "size": 1000},
    {"t": 0.2, "kind": "cwnd", "comp": "flow1", "cwnd": 4.0, "why": "timeout"},
    {"t": 0.3, "kind": "cwnd", "comp": "flow1", "cwnd": 9.0, "why": "new_ack"},
]

SNAPSHOT = {
    "version": 1,
    "time": 3.0,
    "counters": {"queue.drops": 5, "queue.arrivals": 100, "custom.thing": 2},
    "components": {"queue.bn:fwd": {"drops": 5, "arrivals": 100}},
}


class TestLoadReportSource:
    def test_jsonl_trace(self, tmp_path):
        path = write(tmp_path, "t.jsonl",
                     "".join(json.dumps(e) + "\n" for e in TRACE_LINES))
        shape, events = load_report_source(path)
        assert shape == "trace"
        assert events == TRACE_LINES

    def test_single_event_document(self, tmp_path):
        path = write(tmp_path, "one.json", json.dumps(TRACE_LINES[0]))
        shape, events = load_report_source(path)
        assert (shape, events) == ("trace", [TRACE_LINES[0]])

    def test_bare_snapshot(self, tmp_path):
        path = write(tmp_path, "snap.json", json.dumps(SNAPSHOT))
        shape, snap = load_report_source(path)
        assert shape == "snapshot"
        assert snap["counters"]["queue.drops"] == 5

    def test_embedded_metrics_unwrapped(self, tmp_path):
        result = {"utilization": 0.99, "metrics": SNAPSHOT}
        path = write(tmp_path, "result.json", json.dumps(result))
        shape, snap = load_report_source(path)
        assert shape == "snapshot"
        assert snap == SNAPSHOT

    def test_checkpoint_meta_metrics_unwrapped(self, tmp_path):
        fabric_snapshot = dict(SNAPSHOT)
        fabric_snapshot["counters"] = dict(
            SNAPSHOT["counters"], **{"fabric.completions": 4})
        checkpoint = {
            "version": 1,
            "meta": {"git_sha": None, "metrics": fabric_snapshot},
            "cells": {},
        }
        path = write(tmp_path, "ckpt.json", json.dumps(checkpoint))
        shape, snap = load_report_source(path)
        assert shape == "snapshot"
        assert snap["counters"]["fabric.completions"] == 4

    def test_fabric_counters_are_headline(self, tmp_path):
        snap = dict(SNAPSHOT)
        snap["counters"] = {"fabric.requeued": 2, "custom.thing": 1}
        text = summarize_snapshot(snap)
        assert text.index("fabric.requeued") < text.index("custom.thing")

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "empty.json", "  \n")
        with pytest.raises(ObsError, match="empty"):
            load_report_source(path)

    def test_unrecognizable_json_rejected(self, tmp_path):
        path = write(tmp_path, "other.json", json.dumps({"hello": 1}))
        with pytest.raises(ObsError, match="neither"):
            load_report_source(path)


class TestSummaries:
    def test_trace_summary_contents(self):
        text = summarize_trace(TRACE_LINES)
        assert "3 events" in text
        assert "drop" in text and "cwnd" in text
        assert "bn:fwd" in text
        assert "[4.00, 9.00]" in text  # cwnd range for flow1

    def test_snapshot_summary_headline_first(self):
        text = summarize_snapshot(SNAPSHOT)
        assert text.index("queue.drops") < text.index("custom.thing")
        assert "queue.bn:fwd" in text
        assert "t=3.0" in text

    def test_render_report_dispatches(self, tmp_path):
        trace = write(tmp_path, "t.jsonl",
                      "".join(json.dumps(e) + "\n" for e in TRACE_LINES))
        snap = write(tmp_path, "s.json", json.dumps(SNAPSHOT))
        assert "events by kind" in render_report(trace)
        assert "headline counters" in render_report(snap)
