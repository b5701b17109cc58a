"""Tests for series recording and export."""

import csv
import json
import threading
import time

import pytest

from repro.core import Monitor, RTMClient
from repro.core.export import RecordedSeries, SeriesRecorder
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


def _loaded(path):
    """The series a ``to_json`` document holds, as recorded."""
    return [RecordedSeries(entry["label"], entry["component"],
                           entry["path"],
                           [tuple(point) for point in entry["points"]])
            for entry in json.loads(path.read_text())]


@pytest.fixture
def live():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    FIR(num_samples=32768).enqueue(platform.driver)
    url = monitor.start_server()
    thread = threading.Thread(target=platform.run, daemon=True)
    thread.start()
    yield platform, RTMClient(url)
    platform.simulation.abort()
    thread.join(timeout=60)
    monitor.stop_server()


def test_recorder_collects_unbounded_history(live):
    platform, client = live
    rob = platform.chiplets[0].robs[0].name
    recorder = SeriesRecorder(client, [(rob, "size"),
                                       (rob, "top_port.buf")],
                              interval=0.01)
    recorder.record_for(0.8)
    sizes = recorder.series[0].points
    # Under heavy single-core contention the recorder thread may be
    # starved; it must still collect a usable series.
    assert len(sizes) > 5
    times = [t for t, _ in sizes]
    assert times == sorted(times)


def test_recorder_csv_round_trip(live, tmp_path):
    platform, client = live
    rob = platform.chiplets[0].robs[0].name
    recorder = SeriesRecorder(client, [(rob, "size")], interval=0.01)
    recorder.record_for(0.2)
    out = recorder.to_csv(tmp_path / "series.csv")
    rows = list(csv.reader(out.open()))
    assert rows[0] == [f"{rob}.size.time", f"{rob}.size.value"]
    assert len(rows) == len(recorder.series[0].points) + 1


def test_recorder_json_round_trip(live, tmp_path):
    platform, client = live
    rob = platform.chiplets[0].robs[0].name
    recorder = SeriesRecorder(client, [(rob, "size")], interval=0.01)
    recorder.record_for(0.2)
    out = recorder.to_json(tmp_path / "series.json")
    payload = json.loads(out.read_text())
    assert payload[0]["component"] == rob
    assert payload[0]["points"]


def test_recorder_dump_load_round_trip(live, tmp_path):
    platform, client = live
    rob = platform.chiplets[0].robs[0].name
    recorder = SeriesRecorder(client, [(rob, "size"),
                                       (rob, "top_port.buf")],
                              interval=0.01)
    recorder.record_for(0.3)
    out = recorder.to_json(tmp_path / "series.json")
    assert _loaded(out) == recorder.series


def test_to_json_synthetic_round_trip(tmp_path):
    # Pure round-trip without a live server, including a None value
    # (a sample the recorder took while the path was not resolvable).
    series = RecordedSeries("A.size", "A", "size",
                            points=[(0.0, 1.0), (1e-9, None),
                                    (2e-9, 3.5)])
    recorder = SeriesRecorder.__new__(SeriesRecorder)
    recorder.series = [series]
    out = recorder.to_json(tmp_path / "series.json")
    assert _loaded(out) == [series]


def test_recorder_survives_bad_path(live, tmp_path):
    platform, client = live
    rob = platform.chiplets[0].robs[0].name
    recorder = SeriesRecorder(client, [(rob, "not.a.path")],
                              interval=0.01)
    recorder.record_for(0.1)
    assert recorder.series[0].points == []  # no samples, no crash
    recorder.to_csv(tmp_path / "empty.csv")  # exports cleanly


# ---------------------------------------------------------------- atomicity
def test_to_csv_failure_leaves_no_partial_file(tmp_path):
    recorder = SeriesRecorder.__new__(SeriesRecorder)
    good = RecordedSeries("ok", "Thing", "level",
                          points=[(0.0, 1.0), (1.0, 2.0)])
    poisoned = RecordedSeries("bad", "Thing", "level",
                              points=[(0.0, 1.0), "not a pair"])
    recorder.series = [good, poisoned]
    target = tmp_path / "out.csv"
    with pytest.raises(Exception):
        recorder.to_csv(target)
    assert not target.exists(), "partial CSV left behind"
    assert list(tmp_path.iterdir()) == [], "stray temp file left behind"


def test_to_csv_failure_preserves_previous_artifact(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("previous,complete,artifact\n")
    recorder = SeriesRecorder.__new__(SeriesRecorder)
    recorder.series = [RecordedSeries("bad", "Thing", "level",
                                      points=[(0.0, 1.0), None])]
    with pytest.raises(Exception):
        recorder.to_csv(target)
    assert target.read_text() == "previous,complete,artifact\n"
