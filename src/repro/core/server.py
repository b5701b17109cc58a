"""The AkitaRTM HTTP backend.

Turns any monitored simulation into a web server (paper §IV-A): the
frontend (static files under ``repro/core/static``) polls these JSON
endpoints.  The same endpoints are the paper's "HTTP API" that lets
simulators written in other languages plug in, and they are what the
:mod:`repro.core.client` drives in tests, benchmarks and the simulated
user study.

One table answers: :data:`ROUTES` — the paper's views, simulation
control, watches and alerts — and the rows each plane brings.
:data:`PLANES` names a plane's module by path prefix, as a string
(``core`` imports no plane); its ``ROUTES`` are registered with
:func:`register_routes`, the call any simulator may use too, when the
plane is attached or at the first request under its prefix.  A route
returns its answer or raises (:mod:`repro.core.http` holds the contract,
the dispatch and the transport); what the table does not name is a
static file.  All work is on demand, one component or value per request
(§VII's design choices 1 and 2), on a thread beside the simulation's
(choice 3).

Status-code discipline: 400 for malformed or missing query parameters
and for a monitor that has no engine yet, 404 for unknown
component/alert/watch/fault ids, 500 only for genuine route bugs (the
dispatch's backstop).
"""

from __future__ import annotations

import os
import threading
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from .http import (BadRequest, HTTPServerThread, NotFound, Response,
                   float_param, int_param, route_table)

STATIC_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)),
                          "static")

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "application/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".svg": "image/svg+xml",
    ".json": "application/json",
}

#: ``(method, "path?parameters", RTMServer method, purpose)``
ROUTES = (
    ("GET", "/api/overview", "_overview", "sim time, run state, event counts"),
    ("GET", "/api/resources", "_resources", "CPU%, RSS, events/s (T2)"),
    ("GET", "/api/components", "_components", "hierarchical component tree"),
    ("GET", "/api/component?name", "_component",
     "one component, serialized (T5)"),
    ("GET", "/api/value?component&path", "_value",
     "one monitored value (time charts)"),
    ("GET", "/api/buffers?sort&top", "_buffers",
     "bottleneck analyzer table (T5)"),
    ("GET", "/api/progress", "_progress", "progress bars (T1)"),
    ("GET", "/api/hang", "_hang", "hang heuristic verdict (T3)"),
    ("GET", "/api/topology", "_topology", "connection graph (§VIII ext.)"),
    ("GET", "/api/throughput?component", "_throughput",
     "per-port message counts (§VIII)"),
    ("GET", "/api/alerts", "_alerts", "alert rules + firing state"),
    ("POST", "/api/alert?component&path&op&threshold&duration&action",
     "_add_alert", "add a fail-fast alert rule"),
    ("DELETE", "/api/alert?id", "_remove_alert", "remove an alert rule"),
    ("POST", "/api/pause", "_pause", "simulation control"),
    ("POST", "/api/continue", "_continue", "simulation control"),
    ("POST", "/api/kickstart", "_kickstart", "resume a dry run loop"),
    ("POST", "/api/throttle?events_per_second", "_throttle",
     "slow down time (§V-C)"),
    ("POST", "/api/tick?component", "_tick",
     "wake one component (Tick button)"),
    ("POST", "/api/watch?component&path", "_add_watch",
     "add a time-chart watch"),
    ("GET", "/api/watches", "_watches", "all watches + their 300-pt series"),
    ("DELETE", "/api/watch?id", "_remove_watch", "remove a watch"),
)

#: The plane manifest: path prefix -> the module that builds the plane
#: and whose ``ROUTES`` answer it.
PLANES = {
    "/api/trace": "repro.trace.tracer",
    "/api/profile": "repro.profile.continuous",
    "/api/faults": "repro.faults.injector",
    "/api/checkpoint": "repro.checkpoint.checkpointer",
    "/api/watchdog": "repro.core.watchdog",
    "/metrics": "repro.metrics.instrument",
    "/api/metrics": "repro.metrics.instrument",
    "/api/stream": "repro.metrics.instrument",
}

_registering = threading.Lock()


def register_routes(rows: Iterable[Tuple[str, str, Any, str]]) -> None:
    """Serve *rows* from every :class:`RTMServer` of the process, those
    already serving included.  A row is ``(method, "path?params",
    handler, purpose)``; a handler is ``fn(server, params)`` and reads
    ``server.monitor`` once, at its start.  A row replaces the one with
    its method and path.  The table is replaced whole, never edited, so
    a request in flight finishes on the table it started with."""
    with _registering:
        RTMServer.rows = {**RTMServer.rows, **{
            (row[0], row[1].partition("?")[0]): row for row in rows}}
        RTMServer.routes = route_table(RTMServer.rows.values(), RTMServer)


class _Planes(dict):
    """Path prefix -> its plane module, resolved at the first lookup:
    imported, and its rows registered."""

    def __missing__(self, prefix: str):
        module = import_module(PLANES[prefix])
        register_routes(module.ROUTES)
        self[prefix] = module
        return module


#: ``planes[prefix]``: the module :data:`PLANES` names, resolved.
planes = _Planes()


def route_rows() -> Tuple[Tuple[str, str, Any, str], ...]:
    """The one composed table — :data:`ROUTES` and every plane's rows,
    each plane resolved — as README, the docs test and the route walk
    read it."""
    for prefix in PLANES:
        planes[prefix]  # resolves it
    return tuple(RTMServer.rows.values())


class RTMServer(HTTPServerThread):
    """The monitor-bound HTTP server: the composed table, each handler
    reading ``server.monitor`` once, at its start.

    Classically one per simulation; a warm fleet worker instead keeps
    one server alive across many simulations and :meth:`rebind`\\ s it
    to each job's fresh monitor — the worker's dashboard URL (and the
    gateway's reverse-proxy route to it) stays stable for the process
    lifetime while the simulation behind it changes.
    """

    thread_name = "rtm-server"
    #: ``(method, path)`` -> its row, for every row registered so far;
    #: :func:`register_routes` replaces it and ``routes`` together.
    rows: Dict[Tuple[str, str], Tuple[str, str, Any, str]] = {}

    def __init__(self, monitor, host: str = "127.0.0.1", port: int = 0):
        self.monitor = monitor
        #: What a plane keeps per server for the monitor it serves (the
        #: ``?delta=1`` baseline); :meth:`rebind` empties it.
        self.plane_state: Dict[str, Any] = {}
        super().__init__(host=host, port=port)

    @property
    def request_registry(self):
        return getattr(self.monitor, "metrics", None)

    def rebind(self, monitor) -> None:
        """Point the server at a different monitor.

        Every route resolves ``monitor`` once, when its request starts,
        so this switches every *subsequent* request atomically; requests
        already in flight finish against the monitor they started with.
        """
        self.monitor = monitor
        # What planes kept is keyed to the monitor it was taken from;
        # dropping it lets that monitor's simulation be collected.
        self.plane_state = {}

    def resolve(self, method: str, path: str) -> Optional[Callable]:
        """The first request under a plane's prefix resolves the plane
        (``GET /api/trace`` answers before any tracer is attached)."""
        prefix = path
        while prefix not in PLANES:
            prefix = prefix.rpartition("/")[0]
            if not prefix:
                return None
        planes[prefix]  # resolves it
        return self.routes.get((method, path))

    # -- what the routes share -----------------------------------------------
    def _with_engine(self):
        """The monitor, for a route that reads or drives its engine.  A
        warm fleet worker serves ``Monitor()`` from boot until its first
        job: a state of the service, not a route bug, so 400 — as
        ``/api/hang`` answers it."""
        monitor = self.monitor
        if monitor.resources is None:  # register_engine() sets it
            raise BadRequest("no engine registered; this monitor has no "
                             "simulation yet")
        return monitor

    def _component_param(self, params: Dict[str, str],
                         key: str = "component"):
        """``(monitor, name)`` for the registered component *key* names."""
        monitor, name = self.monitor, params.get(key, "")
        if not monitor.has_component(name):
            raise NotFound(f"unknown component {name!r}")
        return monitor, name

    # -- static files ------------------------------------------------------
    def unrouted(self, method: str, path: str, query: str) -> Response:
        """The dashboard: a GET the table does not name is a file under
        ``static/``, or nothing."""
        if method != "GET":
            raise NotFound("not found")
        if path in ("/", "/index.html"):
            path = "/index.html"
        rel = path.lstrip("/").replace("static/", "", 1)
        target = os.path.realpath(os.path.join(STATIC_DIR, rel))
        if not target.startswith(STATIC_DIR + os.sep) \
                or not os.path.isfile(target):
            raise NotFound("not found")
        with open(target, "rb") as f:
            body = f.read()
        return Response(body, _CONTENT_TYPES.get(
            os.path.splitext(target)[1], "application/octet-stream"))

    # -- views -------------------------------------------------------------
    def _overview(self, params):
        return self._with_engine().overview()

    def _resources(self, params):
        return self._with_engine().resources.sample().to_dict()

    def _components(self, params):
        monitor = self.monitor
        return {"tree": monitor.component_tree(),
                "names": monitor.component_names()}

    def _component(self, params):
        monitor, name = self._component_param(params, "name")
        return monitor.component_detail(name)

    def _value(self, params):
        from .inspector import numeric_value, resolve_path
        monitor, name = self._component_param(params)
        path = params.get("path", "")
        try:
            raw = resolve_path(monitor.component(name), path)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            raise BadRequest(f"bad path {path!r}: {exc}") from None
        return {"component": name, "path": path, "time": monitor.now(),
                "value": numeric_value(raw)}

    def _buffers(self, params):
        sort = params.get("sort", "percent")
        top = int_param(params, "top", 50)
        try:
            rows = self.monitor.analyzer.snapshot(sort=sort, top=top)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return {"buffers": [r.to_dict() for r in rows]}

    def _progress(self, params):
        return {"bars": [b.to_dict() for b in self.monitor.progress_bars()]}

    def _hang(self, params):
        monitor = self.monitor
        if monitor.hang is None:
            raise BadRequest("hang detection needs a registered simulation")
        return monitor.hang_status().to_dict()

    def _topology(self, params):
        return self.monitor.topology()

    def _throughput(self, params):
        monitor, name = self._component_param(params)
        return {"ports": monitor.port_throughput(name)}

    def _watches(self, params):
        monitor = self._with_engine()
        monitor.values.sample_all(monitor.now())
        return {"watches": monitor.values.to_dict()}

    def _add_watch(self, params):
        monitor, name = self._component_param(params)
        watch = monitor.watch_value(name, params.get("path", ""))
        return {"id": watch.id, "label": watch.label}

    def _remove_watch(self, params):
        watch_id = int_param(params, "id", 0)
        if not self.monitor.values.unwatch(watch_id):
            raise NotFound(f"unknown watch id {watch_id}")
        return {"removed": True}

    # -- alerts ------------------------------------------------------------
    def _alerts(self, params):
        return {"alerts": self.monitor.alerts.to_dict()}

    def _add_alert(self, params):
        monitor, name = self._component_param(params)
        try:
            rule = monitor.add_alert(
                name, params.get("path", ""), params.get("op", ">="),
                float_param(params, "threshold", 0.0),
                float_param(params, "duration", 0.0),
                params.get("action", "notify"))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return {"id": rule.id, "label": rule.label}

    def _remove_alert(self, params):
        rule_id = int_param(params, "id", 0)
        if not self.monitor.alerts.remove(rule_id):
            raise NotFound(f"unknown alert id {rule_id}")
        return {"removed": True}

    # -- simulation control ------------------------------------------------
    def _pause(self, params):
        self._with_engine().pause()
        return {"paused": True}

    def _continue(self, params):
        self._with_engine().continue_()
        return {"paused": False}

    def _kickstart(self, params):
        self.monitor.kick_start()
        return {"ok": True}

    def _throttle(self, params):
        eps = float_param(params, "events_per_second", 0.0)
        self._with_engine().set_throttle(eps)
        return {"events_per_second": eps}

    def _tick(self, params):
        monitor, name = self.monitor, params.get("component", "")
        if not monitor.tick_component(name):
            raise BadRequest(f"{name!r} is not a ticking component")
        monitor.kick_start()
        return {"ticked": name}


register_routes(ROUTES)
