"""HTTP trace API: endpoints, client methods, status-code discipline."""

import json
import urllib.request

import pytest

from repro.core import Monitor, RTMClient, RTMClientError
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.trace import TraceKind
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


@pytest.fixture
def traced_rig(rig):
    """rig + tracer started + a completed FIR run's events recorded."""
    platform, monitor, client = rig
    client.trace_start(capacity=200_000)
    FIR(num_samples=512).enqueue(platform.driver)
    assert platform.run()
    yield platform, monitor, client


def test_trace_status_before_attach(rig):
    _, __, client = rig
    status = client.trace()
    assert status == {"attached": False}


def test_trace_start_attaches_and_reports(rig):
    platform, monitor, client = rig
    status = client.trace_start()
    assert status["recording"] is True
    assert status["hooked_components"] == \
        len(platform.simulation.components)
    assert monitor.tracer is not None
    assert client.trace()["attached"] is True


def test_trace_start_with_include_filter(rig):
    platform, _, client = rig
    status = client.trace_start(include="RDMA")
    hooked = status["hooked_components"]
    assert 0 < hooked < len(platform.simulation.components)


def test_trace_start_sqlite_backend(rig, tmp_path):
    """A SQLite store is the process's choice (the Python API); HTTP
    reads it like any other."""
    _, monitor, client = rig
    db = str(tmp_path / "trace.db")
    monitor.ensure_tracer(backend="sqlite", db_path=db).start()
    status = client.trace()
    assert status["store"]["backend"] == "sqlite"
    assert status["store"]["path"] == db


def test_trace_start_sqlite_without_db_is_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        client.trace_start(backend="sqlite")


def test_trace_start_unknown_backend_is_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        client.trace_start(backend="postgres")


def test_trace_bad_action_is_400(rig):
    _, __, client = rig
    with pytest.raises(RTMClientError, match="400"):
        client._post("/api/trace", action="bogus")


def test_trace_endpoints_404_without_tracer(rig):
    _, __, client = rig
    for call in (client.trace_stop, client.trace_clear,
                 lambda: client.trace_query(),
                 lambda: client.trace_follow(1),
                 lambda: client.trace_export()):
        with pytest.raises(RTMClientError, match="404"):
            call()


def test_trace_stop_detaches_hooks(traced_rig):
    platform, _, client = traced_rig
    status = client.trace_stop()
    assert status["recording"] is False
    assert all(not c._hooks for c in platform.simulation.components)


def test_trace_clear_empties_store(traced_rig):
    _, __, client = traced_rig
    assert client.trace()["store"]["events"] > 0
    status = client.trace_clear()
    assert status["store"]["events"] == 0


def test_trace_query_over_http(traced_rig):
    _, __, client = traced_rig
    events = client.trace_query(kind=TraceKind.SEND, limit=10)
    assert 0 < len(events) <= 10
    assert all(ev["kind"] == "send" for ev in events)
    assert {"seq", "time", "component", "msg_id"} <= set(events[0])


def test_trace_query_component_and_window(traced_rig):
    platform, _, client = traced_rig
    events = client.trace_query(component="RDMA", limit=0,
                                t1=platform.simulation.now)
    assert events
    assert all("RDMA" in (ev["component"] + ev["what"])
               for ev in events)


def test_trace_query_kind_list(traced_rig):
    _, __, client = traced_rig
    events = client.trace_query(kind="task_begin,task_end", limit=0)
    assert events
    assert {ev["kind"] for ev in events} <= {"task_begin", "task_end"}


def test_trace_query_bad_regex_is_400(traced_rig):
    _, __, client = traced_rig
    with pytest.raises(RTMClientError, match="400"):
        client.trace_query(component="[unclosed")


def test_trace_query_bad_limit_is_400(traced_rig):
    _, __, client = traced_rig
    with pytest.raises(RTMClientError, match="400"):
        client.trace_query(limit="many")


def test_trace_follow_over_http(traced_rig):
    _, __, client = traced_rig
    send = client.trace_query(kind="send", limit=1)[0]
    result = client.trace_follow(send["msg_id"])
    assert result["msg_id"] == send["msg_id"]
    assert result["events"]
    assert any("sent" in line for line in result["path"])


def test_trace_follow_unknown_id_is_404(traced_rig):
    _, __, client = traced_rig
    with pytest.raises(RTMClientError, match="404"):
        client.trace_follow(10**9)


def test_trace_follow_missing_param_is_400(traced_rig):
    _, __, client = traced_rig
    with pytest.raises(RTMClientError, match="400"):
        client._get("/api/trace/follow")


def test_trace_export_jsonl_inline(traced_rig):
    _, __, client = traced_rig
    events = client.trace_export(format="jsonl", limit=100)
    assert isinstance(events, list) and len(events) == 100


def test_trace_export_perfetto_inline(traced_rig):
    _, __, client = traced_rig
    doc = client.trace_export(format="perfetto", limit=100)
    assert doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ns"


def test_trace_export_to_a_path_is_written_by_the_client(traced_rig,
                                                         tmp_path):
    _, __, client = traced_rig
    perfetto = client.trace_export(format="perfetto",
                                   path=str(tmp_path / "trace.json"))
    assert perfetto["traceEvents"]
    assert json.loads((tmp_path / "trace.json").read_text()) == perfetto
    jsonl = client.trace_export(format="jsonl", limit=50,
                                path=str(tmp_path / "trace.jsonl"))
    assert len(jsonl) == 50
    assert [json.loads(line) for line in (tmp_path / "trace.jsonl")
            .read_text().splitlines()] == jsonl


def test_a_get_names_no_file_the_server_writes(rig, tmp_path):
    """Any web page can make a browser send a GET; the two export routes
    once wrote wherever its ``path`` said."""
    _, monitor, client = rig
    client.trace_start()
    client.profile_start()
    for route in ("/api/trace/export", "/api/profile/export"):
        target = tmp_path / route.replace("/", "_")
        client._get(route, path=str(target))
        assert not target.exists(), route
    assert not list(tmp_path.iterdir())


def test_a_post_names_no_file_the_server_writes(rig, tmp_path):
    """Any web page can make a browser send a POST; the trace and
    watchdog routes once created a database or a post-mortem directory
    wherever its parameters said."""
    _, monitor, client = rig
    for route, params in (
            ("/api/trace", {"backend": "sqlite",
                            "db": str(tmp_path / "trace.db")}),
            ("/api/watchdog", {"snapshot_dir": str(tmp_path / "pm")})):
        with pytest.raises(RTMClientError, match="400"):
            client._post(route, action="start", **params)
    assert monitor.tracer is None and monitor.watchdog is None
    assert not list(tmp_path.iterdir())


def test_trace_export_bad_format_is_400(traced_rig):
    _, __, client = traced_rig
    with pytest.raises(RTMClientError, match="400"):
        client.trace_export(format="csv")


def test_stop_server_stops_tracer(rig):
    platform, monitor, client = rig
    client.trace_start()
    assert monitor.tracer.recording
    monitor.stop_server()
    assert not monitor.tracer.recording
    assert all(not c._hooks for c in platform.simulation.components)
