"""SeriesRecorder records registry metrics by name (satellite 2):
any family visible at /api/metrics can be captured alongside component
value paths, and the result round-trips through to_json."""

import json

import pytest

from repro.core import (
    METRIC,
    Monitor,
    RTMClient,
    SeriesRecorder,
    metric_target,
)
from repro.core.export import _parse_metric_spec, _resolve_metric
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import make_workload


@pytest.fixture
def rig():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    client = RTMClient(url)
    yield platform, monitor, client
    monitor.stop_server()


def test_metric_target_marks_spec():
    assert metric_target("rtm_engine_events_total") == \
        (METRIC, "rtm_engine_events_total")


def test_parse_metric_spec_with_labels():
    name, labels = _parse_metric_spec(
        'rtm_cache_hits_total{component="GPU1.L2[0]"}')
    assert name == "rtm_cache_hits_total"
    assert labels == {"component": "GPU1.L2[0]"}
    assert _parse_metric_spec("plain_total") == ("plain_total", {})


def test_resolve_metric_subset_match_and_histogram_count():
    snapshot = {
        "hits_total": {"type": "counter", "help": "", "samples": [
            {"labels": {"component": "L1", "extra": "y"}, "value": 4.0},
            {"labels": {"component": "L2"}, "value": 9.0}]},
        "occ": {"type": "histogram", "help": "", "samples": [
            {"labels": {}, "buckets": {"1.0": 2, "+Inf": 0},
             "sum": 0.7, "count": 2}]},
    }
    assert _resolve_metric(snapshot, "hits_total{component=L2}") == 9.0
    # Subset match: the sample's extra label does not block it.
    assert _resolve_metric(snapshot, "hits_total{component=L1}") == 4.0
    assert _resolve_metric(snapshot, "occ") == 2.0
    assert _resolve_metric(snapshot, "absent_total") is None


def test_recorder_records_metric_and_roundtrips(rig, tmp_path):
    platform, _, client = rig
    make_workload("fir").enqueue(platform.driver)
    client.metrics_start()
    recorder = SeriesRecorder(client, [
        metric_target("rtm_engine_events_total"),
        metric_target("rtm_engine_sim_time_seconds"),
    ])
    recorder.sample_once()  # one sample before the run (zeros)
    assert platform.run()
    recorder.sample_once()  # and one after
    events = recorder.series[0]
    assert events.component == METRIC
    assert len(events.points) == 2
    t0, v0 = events.points[0]
    t1, v1 = events.points[1]
    assert v1 == platform.simulation.engine.event_count
    assert v1 > v0
    # Metric samples are timestamped with published simulation time.
    assert t1 == platform.simulation.engine.now

    path = recorder.to_json(tmp_path / "series.json")
    loaded = json.loads(path.read_text())
    assert [s["label"] for s in loaded] == \
        [s.label for s in recorder.series]
    assert [tuple(p) for p in loaded[0]["points"]] == events.points
    assert [tuple(p) for p in loaded[1]["points"]] == \
        recorder.series[1].points


def test_recorder_mixes_metric_and_value_targets(rig, tmp_path):
    platform, _, client = rig
    name = client.components()[0]
    client.metrics_start()
    recorder = SeriesRecorder(client, [
        (name, "tick_count"),
        metric_target("rtm_engine_events_total"),
    ])
    recorder.sample_once()
    assert len(recorder.series[0].points) == 1  # /api/value path intact
    assert len(recorder.series[1].points) == 1
    csv_path = recorder.to_csv(tmp_path / "series.csv")
    header = csv_path.read_text().splitlines()[0]
    assert "metric.rtm_engine_events_total.value" in header


def test_recorder_skips_metric_points_when_endpoint_unavailable(rig):
    _, __, client = rig
    recorder = SeriesRecorder(client, [
        metric_target("rtm_engine_events_total")])
    client.metrics_snapshot = lambda **kw: (_ for _ in ()).throw(
        RuntimeError("down"))
    recorder.sample_once()
    assert recorder.series[0].points == []
