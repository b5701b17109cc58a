"""HTTP API integration tests: a live platform monitored over HTTP."""

import json
import threading
import time
import urllib.request

import pytest

from repro.core import Monitor, RTMClient, RTMClientError
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


@pytest.fixture
def rig():
    """Platform + monitor + server + client, torn down afterwards."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    client = RTMClient(url)
    yield platform, monitor, client
    monitor.stop_server()


def _run_async(platform, hang_wait=10.0):
    t = threading.Thread(target=lambda: platform.run(hang_wait=hang_wait))
    t.start()
    return t


def test_overview_endpoint(rig):
    platform, monitor, client = rig
    o = client.overview()
    assert o["run_state"] == "idle"
    assert o["now"] == 0.0
    assert o["num_components"] > 0


def test_resources_endpoint(rig):
    _, __, client = rig
    r = client.resources()
    assert r["rss_mb"] > 1
    assert "cpu_percent" in r


def test_components_and_tree(rig):
    platform, _, client = rig
    names = client.components()
    assert set(names) == set(platform.simulation.component_names)
    tree = client.component_tree()
    assert "GPU[0]" in tree
    assert "GPU[1]" in tree


def test_component_detail_endpoint(rig):
    platform, _, client = rig
    name = platform.chiplets[0].l1s[0].name
    detail = client.component(name)
    assert detail["name"] == name
    assert "mshr" in detail["fields"]
    assert "transactions" in detail["watchable"]


def test_component_unknown_404(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="404"):
        client.component("NoSuch")


def test_value_endpoint(rig):
    platform, _, client = rig
    name = platform.chiplets[0].robs[0].name
    assert client.value(name, "size") == 0.0
    assert client.value(name, "top_port.buf") == 0.0


def test_value_bad_path_400(rig):
    platform, _, client = rig
    name = platform.chiplets[0].robs[0].name
    with pytest.raises(RTMClientError, match="400"):
        client.value(name, "nonsense.path")


def test_buffers_endpoint_during_run(rig):
    platform, _, client = rig
    FIR(num_samples=32768).enqueue(platform.driver)
    t = _run_async(platform)
    time.sleep(0.3)
    rows = client.buffers(sort="percent", top=10)
    t.join(timeout=120)
    # During a run some buffers held content; rows may be empty only if
    # we sampled an idle instant, so check the call shape instead.
    for row in rows:
        assert set(row) == {"buffer", "size", "capacity", "percent",
                            "pinned"}
        assert 0 <= row["percent"] <= 1


def test_progress_endpoint(rig):
    platform, _, client = rig
    FIR(num_samples=4096).enqueue(platform.driver)
    bars = client.progress()
    assert any(b["name"] == "kernel:fir" for b in bars)
    total = next(b for b in bars if b["name"] == "kernel:fir")["total"]
    assert total > 0


def test_a_bar_keeps_its_id_across_reads(rig):
    """A driver's kernel and memcopy bars are the monitor's, numbered
    once: a second read names them by the same ids."""
    platform, monitor, client = rig
    FIR(num_samples=4096).enqueue(platform.driver)
    first = [(b["id"], b["name"]) for b in client.progress()]
    assert len(first) == 3  # two memcopies and the kernel
    assert [(b["id"], b["name"]) for b in client.progress()] == first
    assert sorted(bar_id for bar_id, _ in first) == [1, 2, 3]
    extra = monitor.create_progress_bar("setup", total=1)
    assert extra.id == 4
    assert [b["id"] for b in client.progress()] == \
        [4] + [bar_id for bar_id, _ in first]


def test_pause_continue_via_http(rig):
    platform, _, client = rig
    FIR(num_samples=32768).enqueue(platform.driver)
    t = _run_async(platform)
    time.sleep(0.1)
    client.pause()
    time.sleep(0.05)
    count = client.overview()["event_count"]
    time.sleep(0.1)
    assert client.overview()["event_count"] == count
    assert client.overview()["paused"] is True
    client.continue_()
    t.join(timeout=120)
    assert not t.is_alive()
    assert client.overview()["run_state"] == "completed"


def test_tick_endpoint(rig):
    platform, _, client = rig
    rob = platform.chiplets[0].robs[0]
    assert rob.asleep
    client.tick(rob.name)
    assert not rob.asleep


def test_tick_non_ticking_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400|404"):
        client.tick("NoSuch")


def test_profile_endpoints(rig):
    platform, _, client = rig
    FIR(num_samples=32768).enqueue(platform.driver)
    # Sampled over the whole run (~70 samples at the panel's 50 Hz),
    # not its first half second: a top ten of ~20 samples is a lottery.
    client.profile_start()
    t = _run_async(platform)
    t.join(timeout=120)
    client.profile_stop()
    report = client.profile(top=10)
    assert report["samples"] > 5
    assert report["running"] is False
    assert len(report["functions"]) > 0
    # The simulation's own code should dominate the samples: most of
    # the ten hottest functions' self time is spent in the simulator's
    # packages, not in the server's threads or this test's.
    simulator = ("(repro/akita/", "(repro/gpu/", "(repro/workloads/")
    inside = sum(f["self_time"] for f in report["functions"]
                 if any(package in f["name"] for package in simulator))
    total = sum(f["self_time"] for f in report["functions"])
    assert inside > 0.75 * total > 0


def test_watch_lifecycle_via_http(rig):
    platform, _, client = rig
    name = platform.chiplets[0].l1s[0].name
    watch_id = client.watch(name, "transactions")
    # Each /api/watches poll also samples.
    client.watches()
    client.watches()
    watches = client.watches()
    w = next(w for w in watches if w["id"] == watch_id)
    assert len(w["points"]) >= 3
    assert client.unwatch(watch_id)
    assert all(w["id"] != watch_id for w in client.watches())


def test_hang_endpoint_ok_when_running(rig):
    platform, _, client = rig
    FIR(num_samples=8192).enqueue(platform.driver)
    t = _run_async(platform)
    status = client.hang()
    t.join(timeout=120)
    assert status["hung"] in (False, True)  # shape check; not hung below
    final = client.hang()
    assert final["hung"] is False
    assert final["run_state"] in ("completed", "running", "dry")


def test_dashboard_static_files_served(rig):
    _, monitor, _ = rig
    base = monitor.url
    html = urllib.request.urlopen(f"{base}/").read().decode()
    assert "AkitaRTM" in html
    css = urllib.request.urlopen(f"{base}/static/style.css").read().decode()
    assert "--accent" in css
    js = urllib.request.urlopen(f"{base}/static/app.js").read().decode()
    assert "arc-diagram" in js or "arcDiagram" in js or "drawArcDiagram" in js


def test_static_path_traversal_blocked(rig):
    _, monitor, _ = rig
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{monitor.url}/static/../monitor.py")
    assert excinfo.value.code == 404


def test_unknown_api_404(rig):
    _, monitor, _ = rig
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"{monitor.url}/api/definitely-not-a-thing")
    assert excinfo.value.code == 404


def test_concurrent_requests_while_running(rig):
    """The paper's scenario-4 stress shape: hammer the API during a
    simulation and everything stays consistent."""
    platform, _, client = rig
    FIR(num_samples=32768).enqueue(platform.driver)
    t = _run_async(platform)
    errors = []

    def hammer():
        try:
            for _ in range(10):
                client.overview()
                client.buffers(top=5)
                client.progress()
        except Exception as exc:  # noqa: BLE001 - collecting for assert
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    t.join(timeout=120)
    assert errors == []
