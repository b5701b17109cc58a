"""HTTP metrics API: /metrics, /api/metrics, /api/stream (SSE), and
the e2e acceptance scenario — scraping a running 2-chiplet StoreStorm.
"""

import threading
import urllib.request

import pytest

from repro.core import Monitor, RTMClient, RTMClientError, RTMServer
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import make_workload
from repro.workloads.storestorm import StoreStorm


@pytest.fixture
def rig():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    client = RTMClient(url)
    yield platform, monitor, client
    monitor.stop_server()


def _run(platform):
    thread = threading.Thread(target=platform.run)
    thread.start()
    return thread


# -- /metrics (Prometheus) -------------------------------------------------

def test_metrics_endpoint_content_type(rig):
    _, monitor, __ = rig
    with urllib.request.urlopen(f"{monitor.url}/metrics") as response:
        assert response.headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        assert response.status == 200


def test_scrape_autostarts_sim_instrumentation(rig):
    platform, monitor, client = rig
    assert monitor.sim_metrics is None
    client.metrics_text()
    assert monitor.sim_metrics is not None
    assert monitor.sim_metrics.started
    assert platform.simulation.engine._hooks


def test_scrape_during_running_storestorm_has_required_families(rig):
    """Acceptance criterion: curl /metrics during a running 2-chiplet
    StoreStorm returns valid exposition including engine, buffer
    occupancy, cache, RDMA, and per-hook-position overhead families."""
    platform, _, client = rig
    StoreStorm().enqueue(platform.driver)
    client.metrics_start()  # attach before the run so hooks see it all
    thread = _run(platform)
    try:
        text = client.metrics_text()
    finally:
        thread.join()
    # One final scrape after completion: every family present & final.
    text = client.metrics_text()
    for family in ("rtm_engine_events_total",
                   "rtm_engine_queue_depth",
                   "rtm_buffer_occupancy_ratio_bucket",
                   "rtm_cache_hits_total",
                   "rtm_cache_mshr_occupancy",
                   "rtm_rdma_inflight",
                   "rtm_hook_callbacks_total",
                   "rtm_hook_callback_seconds_total",
                   "rtm_http_request_seconds_bucket",
                   "rtm_http_requests_total"):
        assert family in text, family
    # Valid exposition: every sample line is name{...} value.
    for line in text.strip().splitlines():
        if not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            assert name and (value == "+Inf" or float(value) is not None)


def test_http_latency_by_endpoint_is_published(rig):
    _, __, client = rig
    client.overview()
    client.overview()
    snap = client.metrics_snapshot()
    requests = {(s["labels"]["method"], s["labels"]["endpoint"]):
                s["value"]
                for s in snap["rtm_http_requests_total"]["samples"]}
    assert requests[("GET", "/api/overview")] >= 2
    latency = {s["labels"]["endpoint"]: s for s in
               snap["rtm_http_request_seconds"]["samples"]}
    assert latency["/api/overview"]["count"] >= 2
    assert latency["/api/overview"]["sum"] > 0


def test_endpoint_label_is_bounded_by_the_route_table(rig):
    """Whatever paths clients ask for, the label is a table path,
    ``/static`` for a served file, or one constant for the rest (at
    PR 21, 50 unknown ``/api/`` paths were 50 series, ten lines each in
    the latency histogram)."""
    _, __, client = rig

    def endpoints():
        # Asked on the client's one connection: every earlier request
        # on it has been recorded by the time this one is read.
        return {s["labels"]["endpoint"] for s in client.metrics_snapshot()[
            "rtm_http_requests_total"]["samples"]} - {"/api/metrics"}

    client.overview()
    client._call("GET", "/static/app.js", parse_json=False)
    assert endpoints() == {"/api/overview", "/static"}
    for i in range(50):
        with pytest.raises(RTMClientError, match="404"):
            client._get(f"/api/typo{i}")
        with pytest.raises(RTMClientError, match="404"):
            client._get(f"/static/typo{i}.js")
    assert endpoints() == {"/api/overview", "/static", "/unmatched"}


# -- /api/metrics (JSON) ---------------------------------------------------

def test_api_metrics_snapshot_and_names_filter(rig):
    _, __, client = rig
    snap = client.metrics_snapshot(names="^rtm_engine")
    assert snap
    assert all(name.startswith("rtm_engine") for name in snap)


def test_api_metrics_bad_regex_is_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        client.metrics_snapshot(names="(unclosed")


def test_api_metrics_delta(rig):
    platform, _, client = rig
    make_workload("fir").enqueue(platform.driver)
    client.metrics_start()
    client.metrics_snapshot(delta=True)  # establish the baseline
    thread = _run(platform)
    thread.join()
    delta = client.metrics_snapshot(delta=True)
    events = delta["rtm_engine_events_total"]["samples"][0]["value"]
    assert events == platform.simulation.engine.event_count
    # Second delta right after: nothing ran in between.
    again = client.metrics_snapshot(delta=True)
    assert again["rtm_engine_events_total"]["samples"][0]["value"] == 0


def test_delta_after_rebind_starts_from_the_new_monitor():
    """A warm fleet worker rebinds one server to each job's monitor:
    job N+1's first delta must not be measured against job N's totals."""
    first, second = Monitor(), Monitor()
    first.metrics.counter("jobs_work_total", "work").inc(100)
    second.metrics.counter("jobs_work_total", "work").inc(30)
    server = RTMServer(first)
    server.start()
    client = RTMClient(server.url)

    def delta():
        families = client.metrics_snapshot(delta=True,
                                           names="jobs_work_total")
        return families["jobs_work_total"]["samples"][0]["value"]

    try:
        assert delta() == 100
        server.rebind(second)
        assert delta() == 30
        second.metrics.counter("jobs_work_total", "work").inc(5)
        assert delta() == 5
    finally:
        server.stop()


def test_metrics_start_stop_roundtrip(rig):
    platform, monitor, client = rig
    status = client.metrics_start()
    assert status["started"] is True
    assert platform.simulation.engine._hooks
    status = client.metrics_stop()
    assert status["started"] is False
    assert not platform.simulation.engine._hooks


def test_metrics_stop_without_attach_is_404(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="404"):
        client.metrics_stop()


def test_metrics_bad_action_is_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        client._post("/api/metrics", action="explode")


# -- /api/stream (SSE) -----------------------------------------------------

def test_sse_stream_delivers_snapshots(rig):
    """Acceptance criterion: the SSE stream delivers >= 2 snapshots."""
    platform, _, client = rig
    StoreStorm().enqueue(platform.driver)
    thread = _run(platform)
    events = list(client.metrics_stream(interval=0.05, max_events=3))
    thread.join()
    assert len(events) >= 2
    for event in events:
        assert "metrics" in event
        assert "overview" in event
        assert "resources" in event
        assert event["metrics"]["rtm_engine_events_total"][
            "samples"][0]["value"] >= 0
    # Monotonic: later snapshots never report fewer events.
    counts = [e["metrics"]["rtm_engine_events_total"]["samples"][0]
              ["value"] for e in events]
    assert counts == sorted(counts)


def test_sse_stream_attach_false_leaves_sim_uninstrumented(rig):
    """attach=0 (used by the dashboard header) must not attach hooks."""
    platform, monitor, client = rig
    events = list(client.metrics_stream(interval=0.05, max_events=2,
                                        attach=False))
    assert len(events) == 2
    assert monitor.sim_metrics is None
    assert not platform.simulation.engine._hooks
    # Simulation families are absent; server-side ones may be present.
    assert "rtm_engine_events_total" not in events[0]["metrics"]


def test_sse_stream_names_filter(rig):
    _, __, client = rig
    events = list(client.metrics_stream(interval=0.05, max_events=2,
                                        names="^rtm_engine"))
    assert len(events) == 2
    assert all(name.startswith("rtm_engine")
               for name in events[0]["metrics"])


def test_sse_stream_bad_regex_is_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        list(client.metrics_stream(max_events=1, names="(unclosed"))


def test_sse_stream_ends_when_server_stops(rig):
    platform, monitor, client = rig
    stream = client.metrics_stream(interval=10.0)  # long interval
    first = next(stream)  # the push before the first wait
    assert "metrics" in first
    stopper = threading.Timer(0.2, monitor.stop_server)
    stopper.start()
    # stop_server() sets the stopping event; the wait unparks and the
    # stream closes instead of sleeping out the 10s interval.
    remaining = list(stream)
    stopper.join()
    assert remaining == []


def test_watch_values_appear_in_registry(rig):
    """ValueMonitor publishes through the registry: a watch becomes a
    labelled rtm_watch_value sample visible over the metrics API."""
    platform, monitor, client = rig
    name = client.components()[0]
    watch_id = client.watch(name, "tick_count")
    client.watches()  # forces a sample round server-side
    snap = client.metrics_snapshot()
    labels = [s["labels"]["watch"] for s in
              snap["rtm_watch_value"]["samples"]]
    assert any(name in label for label in labels)
    client.unwatch(watch_id)
    snap = client.metrics_snapshot()
    family = snap.get("rtm_watch_value", {"samples": []})
    assert all(name not in s["labels"]["watch"]
               for s in family["samples"])


def test_resource_and_hang_gauges_in_exposition(rig):
    _, __, client = rig
    client.resources()
    client.hang()
    text = client.metrics_text()
    assert "rtm_process_cpu_percent" in text
    assert "rtm_process_rss_bytes" in text
    assert "rtm_sim_events_per_second" in text
    assert "rtm_hang_stalled_seconds" in text
    assert "rtm_hang_hung" in text
