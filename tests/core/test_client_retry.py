"""Retry behaviour of the HTTP client's transport layer.

The retry/backoff tests use a client whose every exchange is reset
mid-flight — a transient transport error.  A refused connection (port 9,
discard) is not transient: it FAST-FAILS with
:class:`RTMConnectionError` without consuming the retry budget, and that
contract has its own tests at the bottom.
"""

import time
from urllib.error import HTTPError, URLError

import pytest

from repro.core import (Monitor, RTMClient, RTMClientError,
                        RTMConnectionError)
from repro.gpu import GPUPlatform, GPUPlatformConfig


def _reset(*args):
    raise ConnectionResetError("connection reset by peer")


def _client(max_retries=3):
    client = RTMClient("http://127.0.0.1:9", max_retries=max_retries,
                       backoff=0.01)
    client._request = _reset
    client._sleep = client_sleeps(client)
    return client


def client_sleeps(client):
    delays = []
    client.sleep_log = delays
    return delays.append


def test_get_retries_transient_failure_then_raises():
    # Every attempt is reset: retried, then given up on.
    client = _client(max_retries=3)
    with pytest.raises(RTMClientError, match="after 4 attempts"):
        client.overview()
    assert client.retry_count == 3
    assert len(client.sleep_log) == 3


def test_backoff_grows_exponentially_with_jitter():
    client = _client(max_retries=3)
    with pytest.raises(RTMClientError):
        client.overview()
    d1, d2, d3 = client.sleep_log
    # Base delays 0.01, 0.02, 0.04 with up to +50% jitter each.
    assert 0.01 <= d1 <= 0.015
    assert 0.02 <= d2 <= 0.03
    assert 0.04 <= d3 <= 0.06
    assert d1 < d2 < d3


def test_zero_max_retries_fails_immediately():
    client = _client(max_retries=0)
    with pytest.raises(RTMClientError, match="after 1 attempts"):
        client.overview()
    assert client.retry_count == 0
    assert client.sleep_log == []


def test_post_is_never_retried():
    client = _client(max_retries=5)
    with pytest.raises(RTMClientError, match="after 1 attempts"):
        client.pause()
    assert client.retry_count == 0


def test_trace_control_posts_are_never_retried():
    # trace_start/trace_stop/trace_clear are POSTs: a timed-out control
    # request may still have been applied, so one attempt only.
    client = _client(max_retries=5)
    for call in (client.trace_start, client.trace_stop,
                 client.trace_clear):
        with pytest.raises(RTMClientError, match="after 1 attempts"):
            call()
    assert client.retry_count == 0
    assert client.sleep_log == []


def test_trace_views_are_retried_like_gets():
    # The read-only trace endpoints ride the idempotent GET path.
    client = _client(max_retries=2)
    with pytest.raises(RTMClientError, match="after 3 attempts"):
        client.trace()
    assert client.retry_count == 2


def test_metrics_control_posts_are_never_retried():
    # metrics_start/metrics_stop follow the same POST discipline as the
    # trace controls: one attempt, no backoff.
    client = _client(max_retries=5)
    for call in (client.metrics_start, client.metrics_stop):
        with pytest.raises(RTMClientError, match="after 1 attempts"):
            call()
    assert client.retry_count == 0
    assert client.sleep_log == []


def test_metrics_views_are_retried_like_gets():
    client = _client(max_retries=2)
    for call in (client.metrics_snapshot, client.metrics_text):
        client.retry_count = 0
        with pytest.raises(RTMClientError, match="after 3 attempts"):
            call()
        assert client.retry_count == 2


def test_metrics_stream_connection_is_retried():
    # Opening the SSE stream is an idempotent GET: transient transport
    # errors back off and retry before giving up.
    client = _client(max_retries=2)
    with pytest.raises(RTMClientError, match="after 3 attempts"):
        client.metrics_stream(max_events=1)
    assert client.retry_count == 2
    assert len(client.sleep_log) == 2


def test_http_error_status_is_never_retried(monkeypatch):
    client = _client(max_retries=5)
    calls = []

    def fake_request(method, endpoint, url, *flags):
        calls.append(url)
        raise RTMClientError(f"{method} {endpoint} -> 404: nope")

    monkeypatch.setattr(client, "_request", fake_request)
    with pytest.raises(RTMClientError, match="404"):
        client.overview()
    assert len(calls) == 1
    assert client.retry_count == 0


def test_transient_then_success_recovers(monkeypatch):
    client = _client(max_retries=3)
    attempts = []

    def flaky(method, endpoint, url, *flags):
        attempts.append(url)
        if len(attempts) < 3:
            raise URLError("connection refused")
        return {"ok": True}

    monkeypatch.setattr(client, "_request", flaky)
    assert client._get("/api/overview") == {"ok": True}
    assert len(attempts) == 3
    assert client.retry_count == 2


# ---------------------------------------------------------------------------
# Connection-refused fast-fail (the default contract)
# ---------------------------------------------------------------------------

def test_connection_refused_fast_fails_without_retries():
    # A dead port is a definitive verdict, answered immediately — no
    # retries, no sleeps.
    client = RTMClient("http://127.0.0.1:9", max_retries=5, backoff=0.5)
    sleeps = []
    client._sleep = sleeps.append
    with pytest.raises(RTMConnectionError, match="connection refused"):
        client.overview()
    assert client.retry_count == 0
    assert sleeps == []


def test_connection_refused_returns_well_under_one_backoff_cycle():
    # Regression for the satellite: probing a dead worker must answer in
    # far less than a single backoff delay (real sleeps, big backoff).
    client = RTMClient("http://127.0.0.1:9", max_retries=3, backoff=2.0)
    start = time.monotonic()
    with pytest.raises(RTMConnectionError):
        client.overview()
    assert time.monotonic() - start < 1.0  # one backoff would be >= 2 s


def test_connection_error_is_a_client_error_subclass():
    # except RTMClientError keeps catching the fast-fail too.
    assert issubclass(RTMConnectionError, RTMClientError)


def test_metrics_stream_refuses_fast():
    client = RTMClient("http://127.0.0.1:9", max_retries=3, backoff=2.0)
    sleeps = []
    client._sleep = sleeps.append
    start = time.monotonic()
    with pytest.raises(RTMConnectionError):
        for _ in client.metrics_stream(max_events=1):
            pass
    assert time.monotonic() - start < 1.0
    assert sleeps == []


def test_retry_against_live_server_is_transparent():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    url = monitor.start_server()
    try:
        client = RTMClient(url, max_retries=2)
        assert client.overview()["run_state"] == "idle"
        assert client.retry_count == 0  # healthy server: no retries
    finally:
        monitor.stop_server()
