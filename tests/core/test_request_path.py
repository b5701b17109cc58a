"""The request path, as counts that do not depend on the host.

One ``RTMClient`` is one kept-alive HTTP/1.1 connection: 100 calls are
1 accepted connection, 1 handler thread, 100 requests and 100 socket
writes (``http.server``, which this loop replaced, did the same work
with 100 connections, 100 threads and 200 writes).  Clients that ask
for ``Connection: close`` — ``urllib``, anything speaking HTTP/1.0 —
still get a connection per request.  The lifecycle tests are the ones a
kept-alive connection makes necessary: a stopped server must stop
answering, a rebound one must answer for its new monitor, and a
connection the server closed for silence must not cost a GET a retry
or send a POST twice.  The fuzz case holds the parser to "damaged
requests are counted and survived".

``PYTHONPATH=src python -m tests.counts`` prints the counts per 100
requests of three clients — a bare kept-alive socket, ``RTMClient`` and
an HTTP/1.0 socket — and ``calls_per_scrape``: the interpreter calls of
one scraper cycle (``/metrics``, ``/api/metrics?delta=1``,
``/api/trace/query?limit=100``) answered in process over a finished
instrumented FIR, the count a cheaper read path claims on.
"""

import functools
import json
import random
import socket
import sys
import threading
import time
import urllib.request
from email.utils import formatdate

import pytest

from repro.core import (Monitor, RTMClient, RTMClientError,
                        RTMConnectionError, RTMServer)
from repro.core.http import HTTPServerThread, Response
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR
from tests.call_counter import count_calls


def _monitor(samples=0):
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    if samples:
        FIR(num_samples=samples).enqueue(platform.driver)
        assert platform.run()
    return monitor


@pytest.fixture
def server():
    server = RTMServer(_monitor())
    server.start()
    yield server
    server.stop()


def _counts(server):
    return (server.connections_accepted, server.requests_served,
            server.response_writes)


def _handler_threads(server):
    return [t for t in threading.enumerate()
            if t.name == server.thread_name + "-conn"]


def _raw(server, request, timeout=5.0):
    """Send *request* bytes, half-close, return everything answered.
    A server that closes on unread input may reset the connection."""
    reply = b""
    with socket.create_connection((server.host, server.port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
            for chunk in iter(lambda: sock.recv(65536), b""):
                reply += chunk
        except ConnectionError:
            pass
    return reply


# ----------------------------------------------------------------------
# Counts
# ----------------------------------------------------------------------
def scrape_calls(samples=256):
    """Interpreter calls of one scraper cycle over a finished FIR run
    with registry and ring tracer, the handlers called in process (the
    counter sees its own thread only) and their answers encoded; the
    cycle before it pays the first read's caches."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_samples=samples).enqueue(platform.driver)
    monitor = Monitor(platform.simulation)
    monitor.ensure_sim_metrics().start()
    monitor.ensure_tracer(backend="ring").start()
    assert platform.run()
    server = RTMServer(monitor)
    routes = [(server.routes.get(("GET", path))
               or server.resolve("GET", path), params)
              for path, params in (("/metrics", {}),
                                   ("/api/metrics", {"delta": "1"}),
                                   ("/api/trace/query", {"limit": "100"}))]

    def cycle():
        for route, params in routes:
            answer = route(server, params)
            if not isinstance(answer, Response):
                json.dumps(answer).encode()

    cycle()
    frames, c_calls, _ = count_calls(cycle)
    return frames + c_calls


@functools.cache
def measure():
    """``connections|requests|writes_per_100_requests@<client>`` for a
    kept-alive socket, ``RTMClient`` and an HTTP/1.0 socket, and
    ``calls_per_scrape``."""
    counts = {"calls_per_scrape": scrape_calls()}
    server = RTMServer(_monitor())
    server.start()
    before = _counts(server)  # the socket below is accepted after this
    try:
        with socket.create_connection((server.host, server.port)) as sock, \
                RTMClient(server.url) as client:
            for name, call in (
                    ("keepalive_socket", lambda: (sock.sendall(
                        b"GET /api/overview HTTP/1.1\r\n\r\n"),
                        sock.recv(1 << 16))),
                    ("rtmclient", client.overview),
                    ("http10_socket", lambda: _raw(
                        server, b"GET /api/overview HTTP/1.0\r\n\r\n"))):
                for _ in range(100):
                    call()
                after = _counts(server)
                for what, a, b in zip(("connections", "requests", "writes"),
                                      before, after):
                    counts[f"{what}_per_100_requests@{name}"] = b - a
                before = after
    finally:
        server.stop()
    return counts


def test_100_calls_are_one_connection_one_thread_100_writes(server):
    counts = measure()
    for name, connections in (("keepalive_socket", 1), ("rtmclient", 1),
                              ("http10_socket", 100)):
        assert [counts[f"{what}_per_100_requests@{name}"]
                for what in ("connections", "requests", "writes")] \
            == [connections, 100, 100], name
    with RTMClient(server.url) as client:
        for _ in range(3):
            client.overview()
        assert len(_handler_threads(server)) == 1
        assert client.retry_count == 0


def test_a_scrape_costs_the_same_calls_twice():
    assert measure()["calls_per_scrape"] == scrape_calls()


def test_connection_close_clients_get_a_connection_per_request(server):
    for i in range(1, 4):
        with urllib.request.urlopen(server.url + "/api/overview") as reply:
            assert reply.headers["Connection"] == "close"
        assert _counts(server) == (i, i, i)
    reply = _raw(server, b"GET /api/overview HTTP/1.0\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"\r\nConnection: close\r\n" in reply
    reply = _raw(server, b"GET /api/overview HTTP/1.0\r\n"
                         b"Connection: keep-alive\r\n\r\n" * 2)
    assert reply.count(b"HTTP/1.1 200 OK\r\n") == 2
    assert reply.count(b"\r\nConnection: keep-alive\r\n") == 2
    assert _counts(server) == (5, 6, 6)


@pytest.mark.parametrize("path", [
    "/", "/static/app.js", "/api/overview", "/metrics",
    "/api/metrics?delta=1", "/api/nonesuch", "/api/buffers?top=x"])
def test_no_response_is_split_over_two_writes(server, path):
    reply = _raw(server, f"GET {path} HTTP/1.1\r\n\r\n".encode() * 3)
    assert reply.count(b"HTTP/1.1 ") == 3
    assert _counts(server) == (1, 3, 3)
    head, _, rest = reply.partition(b"\r\n\r\n")
    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
    assert rest[length:].startswith(b"HTTP/1.1 ")


def test_sse_is_one_connection_without_content_length(server):
    with RTMClient(server.url) as client:
        client.overview()
        events = list(client.metrics_stream(interval=0.05, max_events=2,
                                            attach=False))
        assert len(events) == 2 and "overview" in events[0]
        client.overview()
    # The stream took over the client's connection and ended it; its
    # preamble is one write, each event one more.
    assert _counts(server) == (2, 3, 1 + (1 + 2) + 1)
    reply = _raw(server, b"GET /api/stream?count=1&attach=0 HTTP/1.1\r\n"
                         b"\r\nGET /api/overview HTTP/1.1\r\n\r\n")
    head, _, body = reply.partition(b"\r\n\r\n")
    assert b"Content-Length" not in head
    assert b"\r\nConnection: close\r\n" in head + b"\r\n"
    assert body.startswith(b"data: ") and b"HTTP/1.1" not in body


@pytest.mark.parametrize("when", [0, 951782400 + 86399, 1790899200])
def test_date_header_is_the_http_date_http_server_sent(server, monkeypatch,
                                                       when):
    """Built from constant English names: ``strftime`` would follow
    LC_TIME once an embedding program calls ``setlocale(LC_ALL, "")``."""
    monkeypatch.setattr("repro.core.http.gmtime",
                        lambda: time.gmtime(when))
    reply = _raw(server, b"GET /api/overview HTTP/1.0\r\n\r\n")
    assert b"\r\nDate: %s\r\n" % formatdate(when, usegmt=True).encode() \
        in reply


def test_unknown_method_is_405_and_the_connection_survives(server):
    reply = _raw(server, b"BREW /api/overview HTTP/1.1\r\n\r\n"
                         b"GET /api/overview HTTP/1.1\r\n\r\n")
    assert reply.startswith(b"HTTP/1.1 405 Method Not Allowed\r\n")
    assert b"\r\nAllow: DELETE, GET, POST\r\n" in reply
    assert b'{"error": "method \'BREW\' not allowed"}' in reply
    assert reply.count(b"HTTP/1.1 200 OK\r\n") == 1
    assert server.connections_accepted == 1


def test_a_request_body_is_skipped_so_the_next_request_parses(server):
    reply = _raw(server, b"POST /api/pause HTTP/1.1\r\n"
                         b"Content-Length: 11\r\n\r\nGET / HTTP/"
                         b"GET /api/overview HTTP/1.1\r\n\r\n")
    assert reply.count(b"HTTP/1.1 200 OK\r\n") == 2
    assert b'{"paused": true}' in reply and b'"run_state"' in reply


def test_counts_are_exact_under_concurrent_clients(server):
    """More clients than cores, a short switch interval: a lost update
    to a counter, or two requests interleaved on the one connection of
    a shared client, would show."""
    shared = RTMClient(server.url, max_retries=0)
    errors = []

    def hammer(client):
        try:
            for _ in range(50):
                assert client.overview()["run_state"] == "idle"
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    own = [RTMClient(server.url, max_retries=0) for _ in range(6)]
    threads = [threading.Thread(target=hammer, args=(client,))
               for client in own + [shared] * 4]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert _counts(server) == (7, 500, 500)
    for client in own + [shared]:
        client.close()


# ----------------------------------------------------------------------
# A kept-alive connection's lifecycle
# ----------------------------------------------------------------------
def test_a_stopped_server_stops_answering_kept_alive_clients():
    server = RTMServer(_monitor())
    server.start()
    clients = [RTMClient(server.url, max_retries=0) for _ in range(3)]
    for client in clients:
        client.overview()
    assert server.connections_accepted == 3
    assert len(_handler_threads(server)) == 3
    server.stop()
    assert not [t.name for t in threading.enumerate()
                if t.name.startswith(server.thread_name)]
    served = server.requests_served
    with pytest.raises(RTMConnectionError):
        clients[0].overview()
    with pytest.raises(RTMClientError):
        clients[1].pause()
    assert server.requests_served == served
    for client in clients:
        client.close()


def test_rebind_holds_per_request_on_the_same_connection():
    first, second = _monitor(samples=64), _monitor()
    first.metrics.counter("jobs_work_total", "work").inc(100)
    second.metrics.counter("jobs_work_total", "work").inc(30)
    server = RTMServer(first)
    server.start()

    def delta(client):
        families = client.metrics_snapshot(delta=True,
                                           names="jobs_work_total")
        return families["jobs_work_total"]["samples"][0]["value"]

    try:
        with RTMClient(server.url) as client:
            assert client.overview()["event_count"] > 0
            assert delta(client) == 100
            assert server.connections_accepted == 1
            server.rebind(second)
            assert client.overview()["event_count"] == 0
            assert delta(client) == 30
            assert server.connections_accepted == 1
    finally:
        server.stop()


def test_idle_timeout_costs_a_get_no_retry_and_sends_a_post_once(
        server, monkeypatch):
    # The fixed idle timeout, shortened.
    monkeypatch.setattr("repro.core.http._Connection.timeout", 0.1)

    def wait_for_idle_close():
        deadline = time.monotonic() + 5.0
        while _handler_threads(server):
            assert time.monotonic() < deadline
            time.sleep(0.01)

    with RTMClient(server.url, max_retries=0) as client:
        client.overview()
        assert _counts(server) == (1, 1, 1)
        wait_for_idle_close()
        # The GET finds its connection closed and reopens it, once.
        assert client.overview()["run_state"] == "idle"
        assert _counts(server) == (2, 2, 2)
        assert client.retry_count == 0
        wait_for_idle_close()
        # The POST never tries the old connection.
        client.pause()
        assert _counts(server) == (3, 3, 3)
        # ... nor a live one: a reused connection can fail only after
        # the request was written.
        client.continue_()
        assert _counts(server) == (4, 4, 4)
        client.overview()
        assert _counts(server) == (4, 5, 5)


# ----------------------------------------------------------------------
# Damaged requests are counted and survived
# ----------------------------------------------------------------------
def _damaged(rng):
    noise = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 400)))
    return [
        ("truncated", b"GET /api/over"),
        ("line_too_long", b"GET /api/overview HTTP/1.1\r\nX-Pad: "
                          + b"a" * (70 * 1024) + b"\r\n\r\n"),
        ("too_many_headers", b"GET /api/overview HTTP/1.1\r\n" + b"".join(
            b"X-%d: %d\r\n" % (i, rng.randrange(10 ** 6))
            for i in range(500)) + b"\r\n"),
        ("content_length", b"POST /api/pause HTTP/1.1\r\n"
                           b"Content-Length: lots\r\n\r\n"),
        ("content_length", b"POST /api/pause HTTP/1.1\r\n"
                           b"Content-Length: -1\r\n\r\n"),
        ("request_line", noise.replace(b"\n", b" ") + b"\r\n\r\n"),
        ("truncated", b"GET /api/overview HTTP/1.1\r\nHost: x\r\n"),
        ("request_line", b"GET /api/overview\r\n\r\n"),
        ("request_line", b"GET /api/overview HTTP/2.0\r\n\r\n"),
        ("header", b"GET /api/overview HTTP/1.1\r\nno colon here\r\n\r\n"),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_damaged_requests_are_counted_and_survived(server, monkeypatch,
                                                   seed):
    escaped = []
    monkeypatch.setattr(server._httpd, "handle_error",
                        lambda *args: escaped.append(args))
    monitor = server.monitor
    assert "rtm_http_bad_requests_total" not in monitor.metrics.snapshot()
    cases = _damaged(random.Random(seed))
    random.Random(seed).shuffle(cases)
    expected = {}
    for reason, request in cases:
        reply = _raw(server, request)
        # The answer, when the reset did not outrun it, is one 400 and
        # then the end of the connection.
        if reply:
            assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"\r\nConnection: close\r\n" in reply
            assert reply.count(b"HTTP/1.1 ") == 1
        expected[reason] = expected.get(reason, 0) + 1
        with RTMClient(server.url, max_retries=0) as client:
            assert client.overview()["run_state"] == "idle"
    counted = {
        sample["labels"]["reason"]: sample["value"] for sample in
        monitor.metrics.snapshot()["rtm_http_bad_requests_total"]["samples"]}
    assert counted == expected
    # A client that connects and leaves without a byte is not damage.
    assert _raw(server, b"") == b""
    assert sum(s["value"] for s in monitor.metrics.snapshot()[
        "rtm_http_bad_requests_total"]["samples"]) == len(cases)
    assert not escaped


def test_a_handler_without_a_registry_refuses_uncounted():
    """The two gateways: the same 400, nowhere to count it."""
    server = HTTPServerThread(
        {("GET", "/x"): lambda server, params: {"ok": True}})
    server.start()
    try:
        reply = _raw(server, b"GET /x\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"200 OK" in _raw(server, b"GET /x HTTP/1.0\r\n\r\n")
    finally:
        server.stop()
