"""HTTP status-code discipline: 400 malformed, 404 unknown, 500 bugs.

Also covers the /api/faults and /api/watchdog endpoints end to end.
"""

import urllib.error
import urllib.request

import pytest

from repro.core import Monitor, RTMClient, RTMClientError
from repro.gpu import GPUPlatform, GPUPlatformConfig


@pytest.fixture
def rig():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    yield platform, monitor, RTMClient(url)
    monitor.stop_server()


def _status(monitor, method, path):
    request = urllib.request.Request(f"{monitor.url}{path}",
                                     method=method)
    try:
        with urllib.request.urlopen(request) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


# ----------------------------------------------------------------------
# 400: malformed parameters
# ----------------------------------------------------------------------
def test_buffers_bad_sort_400(rig):
    _, monitor, _ = rig
    assert _status(monitor, "GET", "/api/buffers?sort=banana") == 400


def test_buffers_non_integer_top_400(rig):
    _, monitor, _ = rig
    assert _status(monitor, "GET", "/api/buffers?top=lots") == 400


def test_profile_non_integer_top_400(rig):
    _, monitor, _ = rig
    assert _status(monitor, "GET", "/api/profile?top=x") == 400


def test_throttle_non_numeric_400(rig):
    _, monitor, _ = rig
    assert _status(monitor, "POST",
                   "/api/throttle?events_per_second=fast") == 400


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
@pytest.mark.parametrize("method,path", [
    ("POST", "/api/throttle?events_per_second="),
    ("POST", "/api/watchdog?action=start&check_interval="),
    ("POST", "/api/faults?kind=delay&target=*Switch*&delay="),
    ("GET", "/api/trace/query?t0="),
    ("GET", "/api/stream?count=1&attach=0&interval="),
])
def test_non_finite_numbers_are_400_on_every_route(rig, method, path,
                                                   value):
    """``float()`` parses them; no route can act on one — a NaN
    throttle killed the simulation thread in ``time.sleep``."""
    _, monitor, _ = rig
    monitor.ensure_tracer()
    assert _status(monitor, method, path + value) == 400
    assert monitor.watchdog is None  # nothing was started or armed
    assert not (monitor.injector and monitor.injector.specs)


def test_a_nan_throttle_leaves_the_run_alive(rig):
    platform, monitor, client = rig
    from repro.workloads import FIR
    FIR(num_samples=2048).enqueue(platform.driver)
    with pytest.raises(RTMClientError, match="400"):
        client.throttle(float("nan"))
    platform.engine.set_throttle(float("nan"))  # from Python: no throttle
    assert platform.run()
    assert platform.simulation.run_state == "completed"


def test_alert_non_numeric_threshold_400(rig):
    platform, monitor, _ = rig
    name = platform.chiplets[0].robs[0].name
    assert _status(
        monitor, "POST",
        f"/api/alert?component={name}&path=size&op=>=&threshold=big",
    ) == 400


def test_delete_non_integer_id_400(rig):
    _, monitor, _ = rig
    assert _status(monitor, "DELETE", "/api/watch?id=xyz") == 400
    assert _status(monitor, "DELETE", "/api/alert?id=xyz") == 400
    assert _status(monitor, "DELETE", "/api/faults?id=xyz") == 400


# ----------------------------------------------------------------------
# 404: unknown ids / paths
# ----------------------------------------------------------------------
def test_delete_unknown_ids_404(rig):
    _, monitor, _ = rig
    assert _status(monitor, "DELETE", "/api/watch?id=12345") == 404
    assert _status(monitor, "DELETE", "/api/alert?id=12345") == 404
    assert _status(monitor, "DELETE", "/api/faults?id=12345") == 404


def test_delete_then_404_on_second_delete(rig):
    platform, _, client = rig
    name = platform.chiplets[0].robs[0].name
    watch_id = client.watch(name, "size")
    assert client.unwatch(watch_id) is True
    with pytest.raises(RTMClientError, match="404"):
        client.unwatch(watch_id)


def test_unknown_post_path_404(rig):
    _, monitor, _ = rig
    assert _status(monitor, "POST", "/api/definitely-not") == 404
    assert _status(monitor, "DELETE", "/api/definitely-not") == 404


# ----------------------------------------------------------------------
# /api/faults
# ----------------------------------------------------------------------
def test_faults_get_empty_before_arming(rig):
    _, __, client = rig
    payload = client.faults()
    assert payload == {"armed": False, "faults": [], "stats": {}}


def test_fault_lifecycle_over_http(rig):
    _, __, client = rig
    spec = client.inject_fault("stall", "*WriteBuffer*", start=1e-6)
    assert spec["kind"] == "stall"
    assert spec["target"] == "*WriteBuffer*"
    payload = client.faults()
    assert payload["armed"] is True
    assert [f["id"] for f in payload["faults"]] == [spec["id"]]
    assert payload["stats"]["armed"] == 1
    assert client.revoke_fault(spec["id"]) is True
    assert client.faults()["faults"] == []
    with pytest.raises(RTMClientError, match="404"):
        client.revoke_fault(spec["id"])


def test_fault_post_validation_400(rig):
    _, monitor, _ = rig
    # missing target
    assert _status(monitor, "POST", "/api/faults?kind=drop") == 400
    # unknown kind
    assert _status(monitor, "POST",
                   "/api/faults?kind=explode&target=*") == 400
    # bad probability
    assert _status(
        monitor, "POST",
        "/api/faults?kind=drop&target=*&probability=2.0") == 400
    # non-numeric window
    assert _status(
        monitor, "POST",
        "/api/faults?kind=stall&target=*&start=noon") == 400


def test_fault_pin_unknown_buffer_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        client.inject_fault("pin_buffer", "*NoSuchBuffer*")


# ----------------------------------------------------------------------
# /api/watchdog
# ----------------------------------------------------------------------
def test_watchdog_lifecycle_over_http(rig):
    _, monitor, client = rig
    assert client.watchdog()["enabled"] is False

    started = client.watchdog_start(check_interval=0.05,
                                    max_tick_retries=1, trace_window=8)
    assert started["state"] == "watching"
    assert started["config"]["check_interval"] == 0.05
    assert started["config"]["trace_window"] == 8

    status = client.watchdog()
    assert status["enabled"] is True
    assert status["running"] is True

    stopped = client.watchdog_stop()
    assert stopped["running"] is False
    assert monitor.watchdog.running is False


def test_watchdog_bad_action_400_and_stop_without_404(rig):
    _, monitor, _ = rig
    assert _status(monitor, "POST", "/api/watchdog?action=dance") == 400
    assert _status(monitor, "POST", "/api/watchdog?action=stop") == 404


def test_watchdog_bad_config_400(rig):
    _, monitor, _ = rig
    assert _status(
        monitor, "POST",
        "/api/watchdog?action=start&check_interval=soon") == 400
    # An interval of 0 or less would turn the watchdog into a busy loop
    # beside the simulation: refused, and no watchdog is attached.
    for key in ("check_interval", "retry_wait"):
        for bad in ("0", "-1"):
            assert _status(monitor, "POST", f"/api/watchdog?action=start"
                           f"&{key}={bad}") == 400
    assert monitor.watchdog is None
