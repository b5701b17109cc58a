"""The ``/api/profile`` HTTP surface: the T4 panel and the window /
attribution / export endpoints — two views of the monitor's one
profiler — and the pinned-sim-thread / pinned-buffer fixes.

Everything flows over HTTP the way the dashboard drives it.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.core import Monitor, RTMClient, discover_buffers
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


@pytest.fixture
def rig():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    client = RTMClient(url)
    yield platform, monitor, client
    monitor.stop_server()


def _enqueue(platform, taps=32):
    FIR(num_taps=taps).enqueue(platform.driver)


def _run_async(platform, hang_wait=10.0):
    t = threading.Thread(
        target=lambda: platform.run(hang_wait=hang_wait), daemon=True)
    t.start()
    return t


def _status_of(client, path, method="GET"):
    req = urllib.request.Request(client.base + path, method=method)
    try:
        with urllib.request.urlopen(req, timeout=5) as res:
            return res.status
    except urllib.error.HTTPError as exc:
        return exc.code


# -------------------------------------------------- the T4 panel
def test_profile_payload_shape(rig):
    _, __, client = rig
    payload = client.profile(top=5)
    assert set(payload) >= {"functions", "edges", "samples",
                            "running", "continuous"}
    assert payload["running"] is False
    # No profiler started yet: the key still reports state.
    assert payload["continuous"] == {"running": False}


def test_profile_start_stop_idempotent(rig):
    _, monitor, client = rig
    assert _status_of(client, "/api/profile/start", "POST") == 200
    assert _status_of(client, "/api/profile/start", "POST") == 200
    assert monitor.profiler.running
    assert client.profile()["running"] is True
    # The panel's buttons start and stop the one rolling profiler.
    assert client.profile()["continuous"]["running"] is True
    client.profile_stop()
    assert client.profile()["continuous"]["running"] is False
    client.profile_start()
    assert _status_of(client, "/api/profile/stop", "POST") == 200
    assert _status_of(client, "/api/profile/stop", "POST") == 200
    assert not monitor.profiler.running


def test_profile_bad_top_param_is_400(rig):
    _, __, client = rig
    assert _status_of(client, "/api/profile?top=banana") == 400


def test_panel_report_is_pinned_to_sim_thread(rig):
    """The unpinned-profiler regression: the HTTP server's own frames
    used to pollute the paper's T4 panel.  The report reads only the
    role the engine claims, so it must contain simulation frames
    only."""
    platform, monitor, client = rig
    _enqueue(platform, taps=128)
    client.profile_start()
    runner = _run_async(platform)
    # Poll the report over HTTP while the run is alive: the polling
    # itself keeps the server thread busy, which is exactly what must
    # NOT show up in the report.
    for _ in range(50):
        client.profile(top=50)
        if not runner.is_alive():
            break
        time.sleep(0.01)
    runner.join()
    client.profile_stop()
    report = client.profile(top=500)
    assert report["samples"] > 0
    # Function labels carry the source basename: simulation frames
    # must be present, server-stack frames must not.
    names = {fn["name"] for fn in report["functions"]}
    assert any("engine.py" in n or "driver.py" in n for n in names)
    assert not any("server.py" in n or "socketserver.py" in n
                   or "selectors.py" in n for n in names), names


def test_panel_start_on_an_open_window_reports_the_simulation(rig):
    """The profiler is already sampling, inside a window far longer
    than the run, when the run thread is born and claims the
    simulation role: the panel must show it, not an empty list."""
    platform, monitor, client = rig
    _enqueue(platform, taps=128)
    monitor.start_continuous_profiling(interval=0.005, window_seconds=60.0)
    time.sleep(0.05)
    client.profile_start()
    runner = _run_async(platform)
    runner.join()
    report = client.profile(top=50)
    assert report["continuous"]["windows_opened"] == 1
    names = {fn["name"] for fn in report["functions"]}
    assert any("engine.py" in n or "driver.py" in n for n in names), names


# ---------------------------------------------- window-ring endpoints
def test_continuous_endpoints_404_until_started(rig):
    _, __, client = rig
    for path in ("/api/profile/windows", "/api/profile/attribution",
                 "/api/profile/export"):
        assert _status_of(client, path) == 404


def test_continuous_lifecycle_over_http(rig):
    platform, monitor, client = rig
    _enqueue(platform, taps=64)
    profiler = monitor.start_continuous_profiling(interval=0.005,
                                                  window_seconds=0.2)
    assert profiler.running and client.profile()["continuous"]["running"]
    runner = _run_async(platform)
    runner.join()
    windows = client.profile_windows(last=3)
    assert windows["status"]["samples"] > 0
    assert windows["windows"]
    report = client.profile_attribution(top=10)
    assert report["layers"]
    assert "simulation" in report["threads"]
    # Exports: speedscope is JSON, collapsed is text.
    doc = client.profile_export(format="speedscope")
    assert doc["profiles"]
    text = client.profile_export(format="collapsed")
    assert isinstance(text, str)
    client.profile_stop()
    assert client.profile_windows()["status"]["running"] is False
    # The panel payload carries the same profiler's status.
    assert client.profile()["continuous"]["samples"] > 0


def test_continuous_bad_params_are_400(rig):
    _, monitor, client = rig
    monitor.start_continuous_profiling(interval=0.01)
    try:
        assert _status_of(client,
                          "/api/profile/windows?last=-1") == 400
        assert _status_of(client,
                          "/api/profile/export?format=bogus") == 400
        assert _status_of(client,
                          "/api/profile/attribution?last=zzz") == 400
    finally:
        client.profile_stop()


def test_continuous_start_rejects_bad_config(rig):
    """The profiler is configured from Python; a request names no
    interval, and one that tries reaches no route."""
    _, monitor, client = rig
    for interval in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError):
            monitor.start_continuous_profiling(interval=interval)
    assert monitor.profiler is None
    assert _status_of(client, "/api/profile/continuous?action=start"
                      "&interval=0", "POST") == 404


def test_profile_while_hung(rig):
    """A hung simulation is precisely when the profiler matters: the
    endpoints must answer while the engine starves."""
    platform, monitor, client = rig
    if monitor.hang is not None:
        monitor.hang.stall_threshold = 0.3
    _enqueue(platform)
    client.inject_fault("stall", "*WriteBuffer*", start=5e-7)
    monitor.start_continuous_profiling(interval=0.005, window_seconds=0.2)
    client.profile_start()
    runner = _run_async(platform, hang_wait=30.0)
    deadline = time.monotonic() + 30.0
    hung = False
    while time.monotonic() < deadline:
        if client.hang()["hung"]:
            hung = True
            break
        time.sleep(0.05)
    assert hung, "stall never detected"
    # Both profiling planes answer mid-hang.
    assert client.profile(top=10)["running"] is True
    report = client.profile_attribution()
    assert report["samples"] > 0
    client.profile_stop()
    platform.simulation.abort()
    runner.join(timeout=10.0)


# ------------------------------------------------- pinned buffer flag
def test_buffers_payload_carries_pinned_flag(rig):
    """The ``pinned`` field distinguishes a fault-pinned buffer from a
    genuinely full one; it used to be dropped by ``to_dict``."""
    _, monitor, client = rig
    target = next(buf for name in monitor.component_names()
                  for buf in discover_buffers(monitor.component(name)))
    target.pin()
    try:
        rows = client.buffers(top=0)
        row = next(r for r in rows if r["buffer"] == target.name)
        assert row["pinned"] is True
        assert row["percent"] == 1.0  # pinned reads as full
        assert all("pinned" in r for r in rows)
    finally:
        target.pin(False)
