"""Every route answers: one walk over the three servers' route tables.

Each ``(method, path)`` of ``RTMServer``, ``FleetGateway`` and
``ShardGateway`` is asked once, without parameters, of a fresh server —
never a 5xx (500 is for route bugs), and the status each answers is
pinned below.  The fleet gateway's own rows are walked on a gateway no
historian is bound to; the rows the historian brings (its ``ROUTES``)
on one a ``HistorianService`` has bound itself to.  ``RTMServer``'s
table is the composed one: its own rows and every plane's
(``route_rows()``).  It is walked twice: bound to
``Monitor()``, which is what a warm fleet worker serves from boot until
its first job — nothing attached, so a plane's status is the one it
answers before its attach — and to an idle registered simulation.  At
PR 21 the six routes that read or drive the engine answered the first
with 500.

Then the behaviour at the table's edges that a rewrite of the dispatch
can change without any route noticing.

``python tests/core/test_route_walk.py`` prints the composed table:
method, path, the module that answers it, and its status before any
plane is attached.
"""

import socket
from types import SimpleNamespace

import pytest

from repro.core import Monitor, RTMServer
from repro.core.server import route_rows
from repro.fleet import FleetGateway
from repro.fleet.gateway import ROUTES as FLEET_ROUTES
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.historian import Historian, HistorianService
from repro.historian.service import ROUTES as HISTORIAN_ROUTES
from repro.shard.coordinator import ROUTES as SHARD_ROUTES
from repro.shard.coordinator import ShardCoordinator, ShardGateway
from repro.workloads import StoreStorm

#: (method, path) -> (status of ``Monitor()``, of an idle simulation)
RTM_STATUS = {
    ("GET", "/api/overview"): (400, 200),
    ("GET", "/api/resources"): (400, 200),
    ("GET", "/api/components"): (200, 200),
    ("GET", "/api/component"): (404, 404),
    ("GET", "/api/value"): (404, 404),
    ("GET", "/api/buffers"): (200, 200),
    ("GET", "/api/progress"): (200, 200),
    ("GET", "/api/hang"): (400, 200),
    ("GET", "/api/topology"): (200, 200),
    ("GET", "/api/throughput"): (404, 404),
    ("GET", "/api/alerts"): (200, 200),
    ("POST", "/api/alert"): (404, 404),
    ("DELETE", "/api/alert"): (404, 404),
    ("GET", "/api/faults"): (200, 200),
    ("POST", "/api/faults"): (400, 400),
    ("DELETE", "/api/faults"): (404, 404),
    ("GET", "/api/watchdog"): (200, 200),
    ("POST", "/api/watchdog"): (400, 400),
    ("GET", "/api/checkpoint"): (200, 200),
    ("POST", "/api/checkpoint"): (400, 400),
    ("GET", "/metrics"): (200, 200),
    ("GET", "/api/metrics"): (200, 200),
    ("GET", "/api/stream"): (200, 200),
    ("POST", "/api/metrics"): (400, 400),
    ("GET", "/api/trace"): (200, 200),
    ("GET", "/api/trace/query"): (404, 404),
    ("GET", "/api/trace/follow"): (404, 404),
    ("GET", "/api/trace/export"): (404, 404),
    ("POST", "/api/trace"): (400, 400),
    ("GET", "/api/profile"): (200, 200),
    ("POST", "/api/profile/start"): (200, 200),
    ("POST", "/api/profile/stop"): (200, 200),
    ("GET", "/api/profile/windows"): (404, 404),
    ("GET", "/api/profile/attribution"): (404, 404),
    ("GET", "/api/profile/export"): (404, 404),
    ("POST", "/api/pause"): (400, 200),
    ("POST", "/api/continue"): (400, 200),
    ("POST", "/api/kickstart"): (200, 200),
    ("POST", "/api/throttle"): (400, 200),
    ("POST", "/api/tick"): (400, 400),
    ("POST", "/api/watch"): (404, 404),
    ("GET", "/api/watches"): (400, 200),
    ("DELETE", "/api/watch"): (404, 404),
}

#: A gateway no historian has bound itself to.
FLEET_STATUS = {
    ("GET", "/api/fleet"): 200,
    ("GET", "/api/fleet/profile"): 200,
    ("GET", "/metrics"): 200,
}

#: The historian's rows, on a gateway a service has bound itself to.
HISTORIAN_STATUS = {
    ("GET", "/api/historian"): 200,
    ("GET", "/api/historian/campaigns"): 200,
    ("GET", "/api/historian/query"): 200,
    ("GET", "/api/historian/compare"): 400,
    ("GET", "/api/historian/alerts"): 200,
    ("GET", "/api/historian/stream"): 200,
    ("POST", "/api/historian/rules"): 400,
    ("DELETE", "/api/historian/rules"): 400,
}

SHARD_STATUS = {
    ("GET", "/metrics"): 200,
    ("GET", "/api/progress"): 200,
    ("GET", "/api/buffers"): 200,
    ("GET", "/api/shards"): 200,
}


#: The manager contract of ``FleetGateway``, with nothing in it.
_IDLE_MANAGER = SimpleNamespace(
    live_workers=dict, scrape_targets=list, final_metrics=dict,
    profiles=dict, status=lambda: {"summary": {}, "workers": [], "jobs": []})


def _bare_monitor():
    return RTMServer(Monitor())


def _idle_simulation():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    return RTMServer(monitor)


def _fleet_gateway():
    return FleetGateway(_IDLE_MANAGER)


def _historian_gateway():
    """A fleet gateway recorded into an in-memory store."""
    gateway = FleetGateway(_IDLE_MANAGER)
    HistorianService(Historian(":memory:"),
                     campaign_id="walk").bind_gateway(gateway)
    return gateway


def _shard_gateway():
    """Over a coordinator that never spawned: no shard has a URL."""
    return ShardGateway(ShardCoordinator(
        GPUPlatformConfig.small(num_chiplets=2), StoreStorm(), 2))


def _ask(server, method, path):
    """``(status, head)`` of one HTTP/1.0 request, read up to the end of
    the head (an event stream's body does not end)."""
    with socket.create_connection((server.host, server.port),
                                  timeout=10.0) as sock:
        sock.sendall(f"{method} {path} HTTP/1.0\r\n\r\n".encode())
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head = reply.partition(b"\r\n\r\n")[0].decode("latin-1")
    return int(head.split()[1]), head


#: ``(server, factory, route, status)``; *server* names the test.
WALK = (
    [("bare_monitor", _bare_monitor, key, status[0])
     for key, status in RTM_STATUS.items()]
    + [("idle_simulation", _idle_simulation, key, status[1])
       for key, status in RTM_STATUS.items()]
    + [("fleet_gateway", _fleet_gateway, key, status)
       for key, status in FLEET_STATUS.items()]
    + [("fleet_gateway", _historian_gateway, key, status)
       for key, status in HISTORIAN_STATUS.items()]
    + [("shard_gateway", _shard_gateway, key, status)
       for key, status in SHARD_STATUS.items()])


def test_the_pinned_statuses_cover_the_three_tables():
    for pinned, rows in ((RTM_STATUS, route_rows()),
                         (FLEET_STATUS, FLEET_ROUTES),
                         (HISTORIAN_STATUS, HISTORIAN_ROUTES),
                         (SHARD_STATUS, SHARD_ROUTES)):
        assert set(pinned) == {(method, spec.partition("?")[0])
                               for method, spec, _, _ in rows}


def _answer(make, method, path):
    """``(status, server)``: *path* asked of a fresh server *make* builds,
    stopped again — with every plane a route may have started."""
    server = make()
    server.start()
    try:
        # The one route that never ends by itself, and attaches hooks.
        query = "?count=1&attach=0" if path == "/api/stream" else ""
        answered, _ = _ask(server, method, path + query)
    finally:
        server.stop()
        monitor = getattr(server, "monitor", None)
        if monitor is not None:
            monitor.stop_server()  # a route may have started a sampler
    return answered, server


@pytest.mark.parametrize(
    "make,route,status", [row[1:] for row in WALK],
    ids=[f"{server}-{method}-{path}"
         for server, _, (method, path), _ in WALK])
def test_every_route_answers(make, route, status):
    answered, server = _answer(make, *route)
    assert route in server.routes  # resolved by now, if a plane's
    assert answered < 500
    assert answered == status


# ----------------------------------------------------------------------
# The edges of the table
# ----------------------------------------------------------------------
def test_a_method_the_path_does_not_take_is_404():
    server = _idle_simulation()
    server.start()
    try:
        for method, path in (("POST", "/api/overview"),
                             ("DELETE", "/api/pause"), ("POST", "/"),
                             ("GET", "/api/nonesuch")):
            status, _ = _ask(server, method, path)
            assert status == 404, (method, path)
        assert server.monitor.paused is False
    finally:
        server.stop()


def test_an_unbound_gateway_serves_no_historian_path():
    """No row, no special case: the paths a bound historian serves are
    unknown to a gateway without one, like any path it does not serve."""
    server = _fleet_gateway()
    server.start()
    try:
        for method, path in HISTORIAN_STATUS:
            status, _ = _ask(server, method, path)
            assert status == 404, (method, path)
    finally:
        server.stop()


@pytest.mark.parametrize("method", ["GET", "POST", "DELETE"])
def test_the_fleet_proxy_takes_each_method_it_forwards(method):
    """The reverse proxy is no table row, yet its methods are no 405:
    an unknown worker is the proxy's own 404."""
    server = _fleet_gateway()
    server.start()
    try:
        status, _ = _ask(server, method, "/api/fleet/w9/api/pause")
        assert status == 404
    finally:
        server.stop()


@pytest.mark.parametrize("make,allow", [
    (_bare_monitor, "DELETE, GET, POST"),
    (_fleet_gateway, "DELETE, GET, POST"),
    (_shard_gateway, "GET")])
def test_a_method_the_table_does_not_hold_is_405(make, allow):
    server = make()
    server.start()
    try:
        status, head = _ask(server, "BREW", "/metrics")
        assert status == 405
        assert f"\r\nAllow: {allow}\r\n" in head + "\r\n"
    finally:
        server.stop()


if __name__ == "__main__":
    print(f"{'method':8s}{'path':28s}{'answered by':28s}pre-attach")
    for method, spec, _, _ in route_rows():
        path = spec.partition("?")[0]
        status, server = _answer(_bare_monitor, method, path)
        module = server.routes[(method, path)].__module__
        print(f"{method:8s}{path:28s}{module[len('repro.'):]:28s}{status}")
