"""The AkitaRTM HTTP backend.

Turns any monitored simulation into a web server (paper §IV-A): the
frontend (static files under ``repro/core/static``) polls these JSON
endpoints.  The same endpoints are the paper's "HTTP API" that lets
simulators written in other languages plug in, and they are what the
:mod:`repro.core.client` drives in tests, benchmarks and the simulated
user study.

Endpoints
---------
=======  ==============================  =====================================
Method   Path                            Purpose
=======  ==============================  =====================================
GET      /                               dashboard (static files)
GET      /api/overview                   sim time, run state, event counts
GET      /api/resources                  CPU%, RSS, events/s (T2)
GET      /api/components                 hierarchical component tree
GET      /api/component?name=N           one component, serialized (T5)
GET      /api/value?component=N&path=P   one monitored value (time charts)
GET      /api/buffers?sort=S&top=K       bottleneck analyzer table (T5)
GET      /api/progress                   progress bars (T1)
GET      /api/hang                       hang heuristic verdict (T3)
GET      /api/topology                   connection graph (§VIII ext.)
GET      /api/throughput?component=N     per-port message counts (§VIII)
GET      /api/alerts                     alert rules + firing state
POST     /api/alert?component&path&...   add a fail-fast alert rule
DELETE   /api/alert?id=I                 remove an alert rule
GET      /api/faults                     armed fault specs + stats
POST     /api/faults?kind&target&...     arm a fault (drop/delay/stall...)
DELETE   /api/faults?id=I                disarm a fault
GET      /api/watchdog                   supervision state + post-mortem
POST     /api/watchdog?action=start|stop control the watchdog
GET      /metrics                        Prometheus text exposition
GET      /api/metrics                    registry snapshot (?delta=1)
GET      /api/stream                     SSE: periodic snapshot pushes
POST     /api/metrics?action=start|stop  attach/detach sim instrumentation
GET      /api/trace                      tracer status + store stats
GET      /api/trace/query?component&...  filtered trace events
GET      /api/trace/follow?msg_id=I      one message's hops + path
GET      /api/trace/export?format&path   JSONL / Perfetto export
POST     /api/trace?action=start|stop|clear  control the tracer
GET      /api/profile?top=K              simulation-thread report (T4)
POST     /api/profile/start|stop         start|stop the sampling profiler
GET      /api/profile/windows?last=N     the profiler's window ring
GET      /api/profile/attribution?last   overhead decomposed by layer
GET      /api/profile/export?format=F    collapsed / speedscope export
POST     /api/profile/continuous?action  the same start|stop, configurable
POST     /api/pause | /api/continue      simulation control
POST     /api/kickstart                  resume a dry run loop
POST     /api/throttle?events_per_second slow down time (§V-C)
POST     /api/tick?component=N           wake one component (Tick button)
POST     /api/watch?component=N&path=P   add a time-chart watch
GET      /api/watches                    all watches + their 300-pt series
DELETE   /api/watch?id=I                 remove a watch
=======  ==============================  =====================================

One thread serves each client connection, request after request
(HTTP/1.1 keep-alive; the client's ``Connection`` header is the only
switch); the monitor performs all work on demand, serializing one
component or value per request (§VII's low-overhead design choices 1
and 2), in a thread parallel to the simulation thread (choice 3).

Status-code discipline: 400 for malformed or missing query parameters,
404 for unknown component/alert/watch/fault ids, 500 only for genuine
handler bugs (the final ``except Exception`` backstop).
"""

from __future__ import annotations

import json
import os
import re
import socket
import socketserver
import threading
from time import gmtime, perf_counter
from typing import Any, Callable, Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..metrics import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..metrics import expose as _expose
from ..metrics import snapshot_delta as _snapshot_delta

STATIC_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)),
                          "static")

#: HTTP handler latency buckets (seconds).
_HTTP_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


def _endpoint_label(path: str) -> str:
    """Bound label cardinality: API paths verbatim, static collapsed."""
    if path.startswith("/api/") or path == "/metrics":
        return path
    return "/static"

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "application/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".svg": "image/svg+xml",
    ".json": "application/json",
}


class BadRequest(Exception):
    """A malformed query parameter; mapped to HTTP 400."""


#: Backwards-compatible alias (the original private name).
_BadRequest = BadRequest


def _int_param(params: Dict[str, str], key: str, default: int) -> int:
    try:
        return int(params.get(key, default))
    except (TypeError, ValueError):
        raise BadRequest(f"parameter {key!r} must be an integer, "
                         f"got {params.get(key)!r}") from None


def _float_param(params: Dict[str, str], key: str,
                 default: Optional[float] = None) -> Optional[float]:
    raw = params.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"parameter {key!r} must be a number, "
                         f"got {raw!r}") from None


#: Request framing bounds: bytes in one request or header line, header
#: lines in one request, bytes of a body (read only to be skipped).
_MAX_LINE = 65536
_MAX_HEADERS = 100
_MAX_BODY = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            502: "Bad Gateway"}
_CORS = (("Access-Control-Allow-Origin", "*"),)
#: An HTTP-date is English whatever the process's LC_TIME says.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class _Refused(Exception):
    """The bytes on the connection are not a request this server reads;
    the message is the ``reason`` the refusal is counted under."""


class JSONRequestHandler(socketserver.StreamRequestHandler):
    """The HTTP/1.1 request loop and shared plumbing of the AkitaRTM
    handlers.  One instance, on one thread, per client connection.

    The per-simulation :class:`RTMServer` handler, the fleet gateway
    (:mod:`repro.fleet.gateway`) and the shard gateway speak the same
    dialect: parameters in the query string (a request body is skipped),
    JSON bodies, ``{"error": ...}`` envelopes with the 400/404/500
    status discipline, and query strings flattened to single values.
    Subclasses define ``do_GET``/``do_POST``/``do_DELETE``.
    """

    server_version = "AkitaRTM/1.0"
    #: A kept-alive connection that stays silent this long is closed.
    timeout = 30.0
    #: Every response leaves in one write, so Nagle's algorithm has
    #: nothing to merge — only a delayed ACK to wait on.
    disable_nagle_algorithm = True
    #: The registry refused requests are counted in; ``None`` (the two
    #: gateways): nowhere.
    registry = None

    def handle(self) -> None:
        server = self.server
        try:
            try:
                while self._read_request():
                    with server.lock:
                        server.requests_served += 1
                    getattr(self, "do_" + self.command,
                            self._method_not_allowed)()
                    if self.close_connection or server.stopping.is_set():
                        return
            except _Refused as refused:
                self._refuse(str(refused))
        except OSError:
            pass  # reset, idle timeout, or stop() shut the connection

    def _method_not_allowed(self) -> None:
        allowed = ", ".join(sorted(name[3:] for name in dir(self)
                                   if name.startswith("do_")))
        self._send_json({"error": f"method {self.command!r} not allowed"},
                        405, (("Allow", allowed),))

    def _refuse(self, reason: str) -> None:
        """Damaged requests are counted and survived.  After a framing
        error no later byte can be trusted to start a request: answer
        400 and close."""
        if self.registry is not None:
            self.registry.counter(
                "rtm_http_bad_requests_total",
                "Requests refused by the HTTP parser, by reason.",
                ("reason",)).labels(reason).inc()
        self.close_connection = True
        self._send_error_json(
            "bad request: " + reason.replace("_", " "), 400)

    def _read_line(self) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused("line_too_long")
        if line and not line.endswith(b"\n"):
            raise _Refused("truncated")
        return line

    def _read_request(self) -> bool:
        """Read the next request into ``command``, ``path`` and
        ``headers`` (names lower-cased) and decide whether the
        connection outlives it; ``False`` when the client has left."""
        line = self._read_line()
        if not line:
            return False
        words = str(line, "latin-1").split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            raise _Refused("request_line")
        self.command, self.path, version = words
        self.headers = headers = {}
        while True:
            line = self._read_line()
            if not line:
                raise _Refused("truncated")
            if line in (b"\r\n", b"\n"):
                break
            if len(headers) == _MAX_HEADERS:
                raise _Refused("too_many_headers")
            name, colon, value = str(line, "latin-1").partition(":")
            if not colon:
                raise _Refused("header")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= _MAX_BODY:
            raise _Refused("content_length")
        # The API carries its parameters in the query string; a body is
        # read only so that the next request on the connection parses.
        self.rfile.read(length)
        connection = headers.get("connection", "").lower()
        self.close_connection = (connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"))
        return True

    def _write(self, data: bytes) -> None:
        with self.server.lock:  # counted first: whoever reads it, sees it
            self.server.response_writes += 1
        self.wfile.write(data)

    def _respond(self, status: int, content_type: str,
                 body: Optional[bytes],
                 extra_headers: Iterable[Tuple[str, str]] = ()) -> None:
        """The one place a response head is written: status line,
        headers and *body* leave in a single write.  ``body=None``
        starts a response of unknown length, which only closing the
        connection ends."""
        if body is None:
            self.close_connection = True
        year, month, day, hour, minute, second, weekday = gmtime()[:7]
        head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                f"Server: {self.server_version}",
                f"Date: {_DAYS[weekday]}, {day:02d} {_MONTHS[month - 1]} "
                f"{year} {hour:02d}:{minute:02d}:{second:02d} GMT",
                f"Content-Type: {content_type}"]
        if body is not None:
            head.append(f"Content-Length: {len(body)}")
        head.extend(f"{name}: {value}" for name, value in extra_headers)
        head.append("Connection: close" if self.close_connection
                    else "Connection: keep-alive")
        self._write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n"
                    + (body or b""))

    def _send_json(self, payload: Any, status: int = 200,
                   extra_headers: Tuple[Tuple[str, str], ...] = ()
                   ) -> None:
        self._respond(status, "application/json",
                      json.dumps(payload).encode(), _CORS + extra_headers)

    def _send_error_json(self, message: str, status: int = 400) -> None:
        self._send_json({"error": message}, status)

    def _send_body(self, body: bytes, content_type: str,
                   status: int = 200) -> None:
        self._respond(status, content_type, body, _CORS)

    def _query(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        params = {k: v[0] for k, v in parse_qs(parsed.query).items()}
        return parsed.path, params

    def _send_event_stream(self, produce: Callable[[], Iterable[Any]],
                           interval: float, count: int = 0,
                           keepalive: bool = False) -> None:
        """Server-Sent Events: every *interval* seconds write each
        payload *produce* returns as one ``data:`` frame, until the
        client leaves, *count* frames are sent, or the server stops.
        With *keepalive*, each round also writes a comment so an idle
        stream does not trip the client's socket timeout."""
        self._respond(200, "text/event-stream", None,
                      (("Cache-Control", "no-cache"),) + _CORS)
        stopping = self.server.stopping
        sent = 0
        try:
            while True:
                for payload in produce():
                    self._write(b"data: " + json.dumps(payload).encode()
                                + b"\n\n")
                    sent += 1
                    if count and sent >= count:
                        return
                if keepalive:
                    self._write(b": keepalive\n\n")
                if stopping.wait(interval):
                    return
        except OSError:
            pass  # client went away; nothing to report


class _Handler(JSONRequestHandler):
    """Routes requests to the monitor, resolved anew for each request."""

    monitor = None  # injected by RTMServer via subclassing
    #: ``(monitor, its snapshot)`` as of the last ``?delta=1`` answer.
    _metrics_prev: Tuple[Any, Dict[str, Any]] = (None, {})

    # -- static files ------------------------------------------------------
    def _serve_static(self, path: str) -> None:
        if path in ("/", "/index.html"):
            path = "/index.html"
        rel = path.lstrip("/").replace("static/", "", 1)
        target = os.path.realpath(os.path.join(STATIC_DIR, rel))
        if not target.startswith(STATIC_DIR + os.sep) \
                or not os.path.isfile(target):
            self._send_error_json("not found", 404)
            return
        with open(target, "rb") as f:
            body = f.read()
        self._respond(200, _CONTENT_TYPES.get(
            os.path.splitext(target)[1], "application/octet-stream"), body)

    # -- self-instrumentation ------------------------------------------------
    @property
    def registry(self):
        return getattr(self.monitor, "metrics", None)

    def _record_http(self, method: str, endpoint: str,
                     seconds: float) -> None:
        """Publish this request into the monitor's registry — the HTTP
        slice of Figure 7's overhead decomposition, live."""
        registry = self.registry
        if registry is None:
            return
        registry.counter(
            "rtm_http_requests_total",
            "HTTP requests served, by method and endpoint.",
            ("method", "endpoint")).labels(method, endpoint).inc()
        registry.histogram(
            "rtm_http_request_seconds",
            "HTTP request handling latency, by endpoint.",
            ("endpoint",),
            buckets=_HTTP_BUCKETS).labels(endpoint).observe(seconds)

    # -- GET -----------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        path, params = self._query()
        if path == "/api/stream":
            # Long-lived: excluded from request-latency accounting.
            try:
                self._get_stream(params)
            except BadRequest as exc:
                self._send_error_json(str(exc), 400)
            return
        t0 = perf_counter()
        try:
            self._route_get(path, params)
        finally:
            self._record_http("GET", _endpoint_label(path),
                              perf_counter() - t0)

    def _route_get(self, path: str, params: Dict[str, str]) -> None:
        monitor = self.monitor
        try:
            if path == "/api/overview":
                self._send_json(monitor.overview())
            elif path == "/api/resources":
                self._send_json(monitor.resources.sample().to_dict())
            elif path == "/api/components":
                self._send_json({"tree": monitor.component_tree(),
                                 "names": monitor.component_names()})
            elif path == "/api/component":
                name = params.get("name", "")
                if not monitor.has_component(name):
                    self._send_error_json(f"unknown component {name!r}",
                                          404)
                else:
                    self._send_json(monitor.component_detail(name))
            elif path == "/api/value":
                self._get_value(params)
            elif path == "/api/buffers":
                sort = params.get("sort", "percent")
                top = _int_param(params, "top", 50)
                try:
                    rows = monitor.analyzer.snapshot(sort=sort, top=top)
                except ValueError as exc:
                    raise BadRequest(str(exc)) from None
                self._send_json({"buffers": [r.to_dict() for r in rows]})
            elif path == "/api/progress":
                self._send_json({"bars": [b.to_dict()
                                          for b in monitor.progress_bars()]})
            elif path == "/api/hang":
                if monitor.hang is None:
                    self._send_error_json(
                        "hang detection needs a registered simulation",
                        400)
                else:
                    self._send_json(monitor.hang_status().to_dict())
            elif path == "/api/faults":
                injector = monitor.injector
                self._send_json({
                    "armed": injector is not None,
                    "faults": injector.to_dict() if injector else [],
                    "stats": injector.stats() if injector else {},
                })
            elif path == "/api/watchdog":
                watchdog = monitor.watchdog
                self._send_json({
                    "enabled": watchdog is not None,
                    **(watchdog.to_dict() if watchdog else {}),
                })
            elif path == "/api/checkpoint":
                checkpointer = monitor.checkpointer
                self._send_json({
                    "enabled": checkpointer is not None,
                    **(checkpointer.status() if checkpointer else {}),
                })
            elif path == "/api/profile":
                self._get_profile(params)
            elif path == "/api/profile/windows":
                self._get_profile_windows(params)
            elif path == "/api/profile/attribution":
                self._get_profile_attribution(params)
            elif path == "/api/profile/export":
                self._get_profile_export(params)
            elif path == "/api/watches":
                monitor.values.sample_all(monitor.now())
                self._send_json({"watches": monitor.values.to_dict()})
            elif path == "/api/topology":
                self._send_json(monitor.topology())
            elif path == "/api/alerts":
                self._send_json({"alerts": monitor.alerts.to_dict()})
            elif path == "/api/throughput":
                name = params.get("component", "")
                if not monitor.has_component(name):
                    self._send_error_json(f"unknown component {name!r}",
                                          404)
                else:
                    self._send_json(
                        {"ports": monitor.port_throughput(name)})
            elif path == "/metrics":
                self._get_prometheus()
            elif path == "/api/metrics":
                self._get_metrics(params)
            elif path == "/api/trace":
                tracer = monitor.tracer
                self._send_json({
                    "attached": tracer is not None,
                    **(tracer.status() if tracer else {}),
                })
            elif path == "/api/trace/query":
                self._get_trace_query(params)
            elif path == "/api/trace/follow":
                self._get_trace_follow(params)
            elif path == "/api/trace/export":
                self._get_trace_export(params)
            else:
                self._serve_static(path)
        except BadRequest as exc:
            self._send_error_json(str(exc), 400)
        except Exception as exc:  # surface handler bugs to the client
            self._send_error_json(f"{type(exc).__name__}: {exc}", 500)

    def _get_value(self, params: Dict[str, str]) -> None:
        from .inspector import numeric_value, resolve_path
        monitor = self.monitor
        name = params.get("component", "")
        path = params.get("path", "")
        if not monitor.has_component(name):
            self._send_error_json(f"unknown component {name!r}", 404)
            return
        try:
            raw = resolve_path(monitor.component(name), path)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            self._send_error_json(f"bad path {path!r}: {exc}", 400)
            return
        self._send_json({"component": name, "path": path,
                         "time": monitor.now(),
                         "value": numeric_value(raw)})

    # -- metrics -------------------------------------------------------------
    def _ensure_sim_metrics_started(self) -> None:
        """Auto-attach simulation instrumentation on first scrape, the
        way a Prometheus user expects /metrics to just work.  Monitors
        without a registered simulation still expose their own
        (monitor-side) families."""
        monitor = self.monitor
        try:
            monitor.ensure_sim_metrics().start()
        except RuntimeError:
            pass

    def _get_prometheus(self) -> None:
        self._ensure_sim_metrics_started()
        self._send_body(_expose(self.monitor.metrics).encode(),
                        _PROM_CONTENT_TYPE)

    @staticmethod
    def _names_param(params: Dict[str, str]) -> Optional[str]:
        """The ``names`` family filter, checked to be a regex."""
        names = params.get("names")
        if names is not None:
            try:
                re.compile(names)
            except re.error as exc:
                raise BadRequest(f"bad names regex: {exc}") from None
        return names

    def _get_metrics(self, params: Dict[str, str]) -> None:
        self._ensure_sim_metrics_started()
        monitor = self.monitor
        current = monitor.metrics.snapshot(self._names_param(params))
        want_delta = params.get("delta", "") not in ("", "0", "false")
        payload: Dict[str, Any] = {"delta": want_delta}
        if want_delta:
            # The previous snapshot lives on the per-server handler
            # class, so deltas span requests but not server restarts;
            # it counts only for the monitor it was taken from, so the
            # first delta after a rebind() starts from zero.
            taken_from, previous = type(self)._metrics_prev
            payload["metrics"] = _snapshot_delta(
                previous if taken_from is monitor else {}, current)
            type(self)._metrics_prev = (monitor, current)
        else:
            payload["metrics"] = current
        self._send_json(payload)

    def _get_stream(self, params: Dict[str, str]) -> None:
        """Server-Sent Events: push snapshots until the client leaves,
        ``count`` is reached, or the server stops."""
        monitor = self.monitor
        interval = max(0.05, _float_param(params, "interval", 0.5))
        count = _int_param(params, "count", 0)
        names = self._names_param(params)
        # attach=0 lets passive consumers (the dashboard header) stream
        # overview/resources without attaching simulation hooks — an open
        # browser tab must not perturb the overhead it displays.
        if params.get("attach", "1") not in ("0", "false"):
            self._ensure_sim_metrics_started()

        def snapshot():
            payload: Dict[str, Any] = {
                "metrics": monitor.metrics.snapshot(names)}
            try:
                payload["overview"] = monitor.overview()
            except RuntimeError:
                pass
            if monitor.resources is not None:
                payload["resources"] = monitor.resources.sample().to_dict()
            return (payload,)

        self._send_event_stream(snapshot, interval, count)

    def _post_metrics(self, params: Dict[str, str]) -> None:
        monitor = self.monitor
        action = params.get("action", "")
        if action == "start":
            try:
                sim_metrics = monitor.ensure_sim_metrics()
            except RuntimeError as exc:
                raise BadRequest(str(exc)) from None
            sim_metrics.start()
            self._send_json(sim_metrics.status())
        elif action == "stop":
            if monitor.sim_metrics is None:
                self._send_error_json(
                    "no simulation metrics attached", 404)
                return
            monitor.sim_metrics.stop()
            self._send_json(monitor.sim_metrics.status())
        else:
            raise BadRequest(
                f"action must be 'start' or 'stop', got {action!r}")

    # -- profiling -----------------------------------------------------------
    def _get_profile(self, params: Dict[str, str]) -> None:
        top = _int_param(params, "top", 15)
        profiler = self.monitor.profiler
        if profiler is None:
            payload = {"duration": 0.0, "samples": 0, "functions": [],
                       "edges": [], "running": False,
                       "continuous": {"running": False}}
        else:
            payload = profiler.report(top)
            payload["running"] = profiler.running
            payload["continuous"] = profiler.status()
        self._send_json(payload)

    def _require_profiler(self):
        profiler = self.monitor.profiler
        if profiler is None:
            self._send_error_json(
                "profiler never started; POST /api/profile/start", 404)
            return None
        return profiler

    @staticmethod
    def _last_param(params: Dict[str, str]) -> Optional[int]:
        last = _int_param(params, "last", 0)
        if last < 0:
            raise BadRequest("parameter 'last' must be >= 0")
        return last or None

    def _get_profile_windows(self, params: Dict[str, str]) -> None:
        profiler = self._require_profiler()
        if profiler is None:
            return
        last = self._last_param(params)
        self._send_json({"status": profiler.status(),
                         "windows": profiler.windows(last)})

    def _get_profile_attribution(self, params: Dict[str, str]) -> None:
        profiler = self._require_profiler()
        if profiler is None:
            return
        last = self._last_param(params)
        top = _int_param(params, "top", 20)
        self._send_json(profiler.attribution(last, top=top))

    def _get_profile_export(self, params: Dict[str, str]) -> None:
        profiler = self._require_profiler()
        if profiler is None:
            return
        fmt = params.get("format", "speedscope")
        last = self._last_param(params)
        if fmt == "collapsed":
            text = profiler.collapsed(last, role=params.get("role"))
            payload: Any = text
            body = text.encode()
            content_type = "text/plain; charset=utf-8"
        elif fmt == "speedscope":
            payload = profiler.speedscope(last)
            body = json.dumps(payload).encode()
            content_type = "application/json"
        elif fmt == "summary":
            payload = profiler.summary(last)
            body = json.dumps(payload).encode()
            content_type = "application/json"
        else:
            raise BadRequest(
                f"format must be 'collapsed', 'speedscope' or "
                f"'summary', got {fmt!r}")
        dest = params.get("path")
        if dest is not None:
            from .atomicio import atomic_write_text
            atomic_write_text(
                dest, payload if isinstance(payload, str)
                else json.dumps(payload, indent=2))
            self._send_json({"written": dest, "format": fmt})
        else:
            self._send_body(body, content_type)

    def _post_profile_continuous(self, params: Dict[str, str]) -> None:
        monitor = self.monitor
        action = params.get("action", "")
        if action == "start":
            config: Dict[str, Any] = {}
            for key in ("interval", "window_seconds", "backoff_after",
                        "max_interval"):
                if key in params:
                    config[key] = _float_param(params, key)
            if "ring" in params:
                config["ring"] = _int_param(params, "ring", 15)
            try:
                profiler = monitor.start_continuous_profiling(**config)
            except ValueError as exc:
                raise BadRequest(str(exc)) from None
            self._send_json(profiler.status())
        elif action == "stop":
            profiler = self._require_profiler()
            if profiler is None:
                return
            profiler.stop()
            self._send_json(profiler.status())
        else:
            raise BadRequest(
                f"action must be 'start' or 'stop', got {action!r}")

    # -- trace ---------------------------------------------------------------
    def _require_tracer(self):
        tracer = self.monitor.tracer
        if tracer is None:
            self._send_error_json(
                "no tracer attached; POST /api/trace?action=start", 404)
            return None
        return tracer

    def _get_trace_query(self, params: Dict[str, str]) -> None:
        tracer = self._require_tracer()
        if tracer is None:
            return
        filters: Dict[str, Any] = {
            "limit": _int_param(params, "limit", 200),
        }
        if "component" in params:
            try:
                re.compile(params["component"])
            except re.error as exc:
                raise BadRequest(
                    f"bad component regex: {exc}") from None
            filters["component"] = params["component"]
        if "kind" in params:
            filters["kind"] = params["kind"].split(",")
        if "t0" in params:
            filters["t0"] = _float_param(params, "t0")
        if "t1" in params:
            filters["t1"] = _float_param(params, "t1")
        if "msg_id" in params:
            filters["msg_id"] = _int_param(params, "msg_id", 0)
        events = tracer.query(**filters)
        self._send_json({"count": len(events),
                         "events": [ev.to_dict() for ev in events]})

    def _get_trace_follow(self, params: Dict[str, str]) -> None:
        from ..trace import message_path
        tracer = self._require_tracer()
        if tracer is None:
            return
        if "msg_id" not in params:
            raise BadRequest("parameter 'msg_id' is required")
        msg_id = _int_param(params, "msg_id", 0)
        events = tracer.follow(msg_id)
        if not events:
            self._send_error_json(
                f"no trace events for message {msg_id}", 404)
            return
        self._send_json({"msg_id": msg_id,
                         "events": [ev.to_dict() for ev in events],
                         "path": message_path(events)})

    def _get_trace_export(self, params: Dict[str, str]) -> None:
        from ..trace import export_events
        tracer = self._require_tracer()
        if tracer is None:
            return
        fmt = params.get("format", "jsonl")
        limit = _int_param(params, "limit", 0)
        events = tracer.query(limit=limit)
        dest = params.get("path")
        try:
            payload = export_events(events, fmt, dest)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        if dest is not None:
            self._send_json({"written": str(payload),
                             "count": len(events), "format": fmt})
        else:
            self._send_json(payload)

    def _post_trace(self, params: Dict[str, str]) -> None:
        monitor = self.monitor
        action = params.get("action", "")
        if action == "start":
            backend = params.get("backend", "ring")
            try:
                tracer = monitor.ensure_tracer(
                    backend=backend,
                    capacity=_int_param(params, "capacity", 65536),
                    db_path=params.get("db"),
                    include=params.get("include"))
            except (RuntimeError, ValueError) as exc:
                raise BadRequest(str(exc)) from None
            tracer.start()
            self._send_json(tracer.status())
        elif action == "stop":
            tracer = self._require_tracer()
            if tracer is None:
                return
            tracer.stop()
            self._send_json(tracer.status())
        elif action == "clear":
            tracer = self._require_tracer()
            if tracer is None:
                return
            tracer.clear()
            self._send_json(tracer.status())
        else:
            raise BadRequest(
                f"action must be 'start', 'stop' or 'clear', "
                f"got {action!r}")

    # -- POST ----------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802
        path, params = self._query()
        t0 = perf_counter()
        try:
            self._route_post(path, params)
        finally:
            self._record_http("POST", _endpoint_label(path),
                              perf_counter() - t0)

    def _route_post(self, path: str, params: Dict[str, str]) -> None:
        monitor = self.monitor
        try:
            if path == "/api/pause":
                monitor.pause()
                self._send_json({"paused": True})
            elif path == "/api/continue":
                monitor.continue_()
                self._send_json({"paused": False})
            elif path == "/api/kickstart":
                monitor.kick_start()
                self._send_json({"ok": True})
            elif path == "/api/throttle":
                eps = _float_param(params, "events_per_second", 0.0)
                monitor.set_throttle(eps)
                self._send_json({"events_per_second": eps})
            elif path == "/api/tick":
                name = params.get("component", "")
                ok = monitor.tick_component(name)
                if ok:
                    monitor.kick_start()
                    self._send_json({"ticked": name})
                else:
                    self._send_error_json(
                        f"{name!r} is not a ticking component", 400)
            elif path == "/api/profile/start":
                monitor.start_continuous_profiling()
                self._send_json({"profiling": True})
            elif path == "/api/profile/stop":
                if monitor.profiler is not None:
                    monitor.profiler.stop()
                self._send_json({"profiling": False})
            elif path == "/api/profile/continuous":
                self._post_profile_continuous(params)
            elif path == "/api/watch":
                name = params.get("component", "")
                value_path = params.get("path", "")
                if not monitor.has_component(name):
                    self._send_error_json(f"unknown component {name!r}",
                                          404)
                    return
                watch = monitor.watch_value(name, value_path)
                self._send_json({"id": watch.id, "label": watch.label})
            elif path == "/api/alert":
                name = params.get("component", "")
                if not monitor.has_component(name):
                    self._send_error_json(f"unknown component {name!r}",
                                          404)
                    return
                try:
                    rule = monitor.add_alert(
                        name, params.get("path", ""),
                        params.get("op", ">="),
                        _float_param(params, "threshold", 0.0),
                        _float_param(params, "duration", 0.0),
                        params.get("action", "notify"))
                except ValueError as exc:
                    self._send_error_json(str(exc), 400)
                    return
                self._send_json({"id": rule.id, "label": rule.label})
            elif path == "/api/faults":
                self._post_fault(params)
            elif path == "/api/watchdog":
                self._post_watchdog(params)
            elif path == "/api/checkpoint":
                checkpointer = monitor.checkpointer
                if checkpointer is None:
                    self._send_error_json(
                        "no checkpointer attached", 400)
                elif params.get("action", "save") != "save":
                    self._send_error_json(
                        "unknown action (expected save)", 400)
                else:
                    saved = checkpointer.save_paused()
                    self._send_json({"saved": saved,
                                     **checkpointer.status()})
            elif path == "/api/trace":
                self._post_trace(params)
            elif path == "/api/metrics":
                self._post_metrics(params)
            else:
                self._send_error_json("not found", 404)
        except BadRequest as exc:
            self._send_error_json(str(exc), 400)
        except Exception as exc:
            self._send_error_json(f"{type(exc).__name__}: {exc}", 500)

    def _post_fault(self, params: Dict[str, str]) -> None:
        """Arm one fault: ``kind`` + ``target`` are required."""
        from ..faults.injector import FaultKind, FaultSpec
        monitor = self.monitor
        kind = params.get("kind", "")
        target = params.get("target", "")
        if kind not in [k.value for k in FaultKind]:
            raise BadRequest(
                f"kind must be one of "
                f"{sorted(k.value for k in FaultKind)}, got {kind!r}")
        if not target:
            raise BadRequest("parameter 'target' is required")
        try:
            injector = monitor.ensure_injector(
                seed=_int_param(params, "seed", 0))
        except RuntimeError as exc:
            raise BadRequest(str(exc)) from None
        try:
            spec = injector.inject(FaultSpec(
                FaultKind(kind), target,
                start=_float_param(params, "start", 0.0),
                end=_float_param(params, "end"),
                probability=_float_param(params, "probability", 1.0),
                delay=_float_param(params, "delay", 0.0)))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        self._send_json(spec.to_dict())

    def _post_watchdog(self, params: Dict[str, str]) -> None:
        monitor = self.monitor
        action = params.get("action", "")
        if action == "start":
            config = {}
            for key in ("check_interval", "retry_wait"):
                if key in params:
                    config[key] = _float_param(params, key)
            for key in ("max_tick_retries", "max_suspects",
                        "trace_window"):
                if key in params:
                    config[key] = _int_param(params, key, 0)
            for key in ("recover", "abort_on_failure"):
                if key in params:
                    config[key] = params[key].lower() not in (
                        "0", "false", "no")
            if "snapshot_dir" in params:
                config["snapshot_dir"] = params["snapshot_dir"]
            watchdog = monitor.enable_watchdog(**config)
            self._send_json(watchdog.to_dict())
        elif action == "stop":
            if monitor.watchdog is None:
                self._send_error_json("no watchdog attached", 404)
                return
            monitor.watchdog.stop()
            self._send_json(monitor.watchdog.to_dict())
        else:
            raise BadRequest(
                f"action must be 'start' or 'stop', got {action!r}")

    # -- DELETE -------------------------------------------------------------
    def do_DELETE(self) -> None:  # noqa: N802
        path, params = self._query()
        t0 = perf_counter()
        try:
            self._route_delete(path, params)
        finally:
            self._record_http("DELETE", _endpoint_label(path),
                              perf_counter() - t0)

    def _route_delete(self, path: str, params: Dict[str, str]) -> None:
        try:
            if path == "/api/watch":
                watch_id = _int_param(params, "id", 0)
                removed = self.monitor.values.unwatch(watch_id)
                if not removed:
                    self._send_error_json(f"unknown watch id {watch_id}",
                                          404)
                    return
                self._send_json({"removed": True})
            elif path == "/api/alert":
                rule_id = _int_param(params, "id", 0)
                removed = self.monitor.alerts.remove(rule_id)
                if not removed:
                    self._send_error_json(f"unknown alert id {rule_id}",
                                          404)
                    return
                self._send_json({"removed": True})
            elif path == "/api/faults":
                spec_id = _int_param(params, "id", 0)
                injector = self.monitor.injector
                if injector is None or not injector.revoke(spec_id):
                    self._send_error_json(f"unknown fault id {spec_id}",
                                          404)
                    return
                self._send_json({"removed": True})
            else:
                self._send_error_json("not found", 404)
        except BadRequest as exc:
            self._send_error_json(str(exc), 400)
        except Exception as exc:
            self._send_error_json(f"{type(exc).__name__}: {exc}", 500)


class _ConnectionServer(socketserver.ThreadingTCPServer):
    """The accept loop under :class:`HTTPServerThread`: one daemon
    thread per client connection, each on record while it is open so
    that stopping the server can close it."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, thread_name: str):
        super().__init__(address, handler)
        self.stopping = threading.Event()
        self.thread_name = thread_name
        #: Guards ``open`` and the three counters.
        self.lock = threading.Lock()
        self.open: Dict[socket.socket, threading.Thread] = {}
        self.connections_accepted = 0
        self.requests_served = 0
        self.response_writes = 0

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address), daemon=True,
            name=f"{self.thread_name}-conn")
        with self.lock:
            self.connections_accepted += 1
            self.open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self.lock:
            self.open.pop(request, None)
        super().shutdown_request(request)


class HTTPServerThread:
    """Owns the listening socket, its accept thread and the connections.

    The reusable server shell: bind at construction time (so ``port=0``
    resolves to the ephemeral port before :meth:`start` returns), accept
    from a daemon thread, and expose a ``stopping`` event that long-
    lived handlers (SSE streams) wait on between pushes so :meth:`stop`
    unparks them immediately instead of waiting out an interval.
    :meth:`stop` also shuts every kept-alive connection: a handler
    thread must not go on answering for a stopped server.
    """

    thread_name = "rtm-http"

    #: ``serve_forever`` wakes at this interval to notice ``shutdown()``.
    #: The stdlib default (0.5 s) makes every server stop cost up to
    #: half a second of pure sleeping — per *job* under the old
    #: one-subprocess-per-attempt fleet, which is one of the fixed
    #: costs the warm pool exists to amortize.
    poll_interval = 0.05

    def __init__(self, handler, host: str = "127.0.0.1", port: int = 0):
        self._httpd = _ConnectionServer((host, port), handler,
                                        self.thread_name)
        self._handler = handler
        self._thread: Optional[threading.Thread] = None
        self.host = host
        self.port = self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # The request path as host-independent counts (tier-1 gates them).
    @property
    def connections_accepted(self) -> int:
        return self._httpd.connections_accepted

    @property
    def requests_served(self) -> int:
        return self._httpd.requests_served

    @property
    def response_writes(self) -> int:
        return self._httpd.response_writes

    def start(self) -> None:
        self._thread = threading.Thread(
            target=lambda: self._httpd.serve_forever(
                poll_interval=self.poll_interval),
            daemon=True, name=self.thread_name)
        self._thread.start()

    def stop(self) -> None:
        httpd = self._httpd
        httpd.stopping.set()
        httpd.shutdown()
        httpd.server_close()
        with httpd.lock:
            connections = list(httpd.open.items())
        for connection, _ in connections:
            try:
                # Wakes a handler parked on a silent kept-alive
                # connection; one in mid-answer fails its write.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler closed it first
        for thread in [self._thread] + [t for _, t in connections]:
            if thread is not None:
                thread.join(timeout=2.0)
        self._thread = None


class RTMServer(HTTPServerThread):
    """The monitor-bound HTTP server.

    Classically one per simulation; a warm fleet worker instead keeps
    one server alive across many simulations and :meth:`rebind`\\ s it
    to each job's fresh monitor — the worker's dashboard URL (and the
    gateway's reverse-proxy route to it) stays stable for the process
    lifetime while the simulation behind it changes.
    """

    thread_name = "rtm-server"

    def __init__(self, monitor, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"monitor": monitor})
        super().__init__(handler, host=host, port=port)

    @property
    def monitor(self):
        return self._handler.monitor

    def rebind(self, monitor) -> None:
        """Point the server at a different monitor.

        Handler instances resolve ``monitor`` through their class at
        request time, so flipping the class attribute switches every
        *subsequent* request atomically; requests already in flight
        finish against the monitor they started with.
        """
        self._handler.monitor = monitor
        # The ``?delta=1`` baseline is keyed to the monitor it was taken
        # from; dropping it lets that monitor's simulation be collected.
        self._handler._metrics_prev = (None, {})
