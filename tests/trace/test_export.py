"""Exporter tests: JSONL round-trip and Perfetto document structure."""

import json

import pytest

from repro.trace import (
    TraceEvent,
    TraceKind,
    export_events,
    read_jsonl,
    to_perfetto,
    write_jsonl,
    write_perfetto,
)
from repro.trace.export import TS_SCALE


def _events():
    return [
        TraceEvent(1e-9, TraceKind.SEND, "A", "Out", 1, "ReadReq",
                   "A.Out", "B.In", seq=0),
        TraceEvent(2e-9, TraceKind.DELIVER, "B", "In", 1, "ReadReq",
                   "A.Out", "B.In", "1/4", seq=1),
        TraceEvent(2e-9, TraceKind.RETRIEVE, "B", "In", 1, "ReadReq",
                   "A.Out", "B.In", "0/4", seq=2),
        TraceEvent(3e-9, TraceKind.TASK_BEGIN, "B", "work", None,
                   "busy", extra="t1", seq=3),
        TraceEvent(4e-9, TraceKind.TASK_END, "B", "work", None,
                   "busy", extra="t1", seq=4),
        TraceEvent(5e-9, TraceKind.SEND, "B", "Out", 2, "WriteReq",
                   "B.Out", "C.In", seq=5),
        TraceEvent(5e-9, TraceKind.DROP, "ConnBC", "ConnBC", 2,
                   "WriteReq", "B.Out", "C.In", seq=6),
    ]


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(_events(), path)
    loaded = read_jsonl(path)
    assert loaded == _events()
    assert [ev.seq for ev in loaded] == [0, 1, 2, 3, 4, 5, 6]


def test_jsonl_is_one_object_per_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(_events(), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 7
    assert json.loads(lines[0])["kind"] == "send"


def test_perfetto_document_shape():
    doc = to_perfetto(_events())
    assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
    events = doc["traceEvents"]
    process_meta = [e for e in events
                    if e["ph"] == "M" and e["name"] == "process_name"]
    assert process_meta[0]["args"]["name"] == "repro.trace"
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"A", "B", "ConnBC"} <= thread_names


def test_perfetto_timestamps_are_scaled():
    doc = to_perfetto(_events())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    send = [e for e in slices if e["name"].startswith("send ReadReq")][0]
    assert send["ts"] == pytest.approx(1e-9 * TS_SCALE)


def test_perfetto_flow_arrows_pair_send_with_deliver_and_drop():
    doc = to_perfetto(_events())
    starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
    finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
    # msg 1: send->deliver; msg 2: send->drop.
    assert len(starts) == 2 and len(finishes) == 2
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}


def test_perfetto_async_spans_for_tasks():
    doc = to_perfetto(_events())
    begins = [e for e in doc["traceEvents"] if e["ph"] == "b"]
    ends = [e for e in doc["traceEvents"] if e["ph"] == "e"]
    assert len(begins) == 1 and len(ends) == 1
    assert begins[0]["id"] == ends[0]["id"] == "B:t1"


def test_write_perfetto_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    write_perfetto(_events(), path)
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_export_events_dispatcher(tmp_path):
    events = _events()
    assert len(export_events(events, "jsonl")) == 7
    assert export_events(events, "perfetto")["traceEvents"]
    out = export_events(events, "jsonl", tmp_path / "t.jsonl")
    assert out.is_file()
    with pytest.raises(ValueError, match="format"):
        export_events(events, "csv")


def test_write_jsonl_failure_leaves_no_partial_file(tmp_path):
    def poisoned_events():
        yield from _events()[:2]
        raise RuntimeError("store read hit damage mid-iteration")

    target = tmp_path / "trace.jsonl"
    with pytest.raises(RuntimeError):
        write_jsonl(poisoned_events(), target)
    assert not target.exists(), "partial JSONL left behind"
    assert list(tmp_path.iterdir()) == [], "stray temp file left behind"


def test_write_jsonl_failure_preserves_previous_artifact(tmp_path):
    target = tmp_path / "trace.jsonl"
    write_jsonl(_events()[:1], target)
    before = target.read_text()

    def poisoned():
        raise RuntimeError("boom")
        yield  # pragma: no cover

    with pytest.raises(RuntimeError):
        write_jsonl(poisoned(), target)
    assert target.read_text() == before
