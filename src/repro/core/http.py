"""The HTTP transport and the one dispatch of every AkitaRTM server.

Everything that touches a socket lives here: the HTTP/1.1 keep-alive
request loop with its bounded parser, the single response writer, the
Server-Sent Events writer, and :class:`HTTPServerThread`, the shell the
per-simulation :class:`~repro.core.server.RTMServer`, the fleet gateway
and the shard gateway are built on.  The three speak one dialect:
parameters in the query string (a request body is skipped), JSON
bodies, ``{"error": ...}`` envelopes.

A server is a route table, ``{(method, path): fn(server, params)}``,
and a route never sees the connection.  It **returns** what it answers
— a JSON-able payload, a :class:`Response` for anything that is not JSON
(Prometheus text, a static file, a proxied body) or an
:class:`EventStream` — and **raises** :class:`BadRequest` (400: a
malformed or missing parameter) or :class:`NotFound` (404: an unknown
component / alert / watch / fault id).  The dispatch alone turns either
into bytes, times the request, answers 405 for a method the table does
not hold, hands a path no entry names to the server's
:meth:`~HTTPServerThread.resolve`, then :meth:`~HTTPServerThread.unrouted`,
and keeps 500 for genuine route bugs (its ``except Exception`` is the
only one on the request path).

One thread serves each client connection, request after request (the
client's ``Connection`` header is the only switch), and every response
leaves in one write.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from time import gmtime, perf_counter
from typing import (Any, Callable, Dict, Iterable, NamedTuple, Optional,
                    Tuple)
from urllib.parse import parse_qs, urlparse

#: HTTP handler latency buckets (seconds).
_HTTP_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)

#: The ``endpoint`` label of a request no table entry names: answered by
#: :meth:`HTTPServerThread.unrouted` (the one server that counts
#: requests serves files there) or by nobody.  With the table's own
#: paths these bound the label's cardinality, whatever clients ask for.
_UNROUTED_LABEL = "/static"
_UNMATCHED_LABEL = "/unmatched"

#: Request framing bounds: bytes in one request or header line, header
#: lines in one request, bytes of a body (read only to be skipped).
_MAX_LINE = 65536
_MAX_HEADERS = 100
_MAX_BODY = 1 << 20

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            502: "Bad Gateway"}
#: An HTTP-date is English whatever the process's LC_TIME says.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class BadRequest(Exception):
    """A malformed or missing query parameter; answered 400."""


class NotFound(Exception):
    """The request names something the server does not have; answered
    404."""


class Response(NamedTuple):
    """What a route returns when the answer is not a JSON payload."""

    body: bytes
    content_type: str
    status: int = 200


class EventStream(NamedTuple):
    """Server-Sent Events, as a route returns them: every *interval*
    seconds each payload *produce* returns is written as one ``data:``
    frame, until the client leaves, *count* frames are sent, or the
    server stops.  With *keepalive*, each round also writes a comment
    so an idle stream does not trip the client's socket timeout."""

    produce: Callable[[], Iterable[Any]]
    interval: float
    count: int = 0
    keepalive: bool = False


def int_param(params: Dict[str, str], key: str, default: int) -> int:
    try:
        return int(params.get(key, default))
    except (TypeError, ValueError):
        raise BadRequest(f"parameter {key!r} must be an integer, "
                         f"got {params.get(key)!r}") from None


def float_param(params: Dict[str, str], key: str,
                default: Optional[float] = None) -> Optional[float]:
    """A finite number: ``nan`` and ``inf`` parse, but no route can act
    on one (``time.sleep(nan)`` kills the simulation thread)."""
    raw = params.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise BadRequest(f"parameter {key!r} must be a finite number, "
                         f"got {raw!r}")
    return value


def action_param(params: Dict[str, str], *actions: str) -> str:
    """The ``action`` parameter of a control route, one of *actions*."""
    action = params.get("action", "")
    if action not in actions:
        names = [repr(name) for name in actions]
        raise BadRequest(f"action must be {', '.join(names[:-1])} or "
                         f"{names[-1]}, got {action!r}")
    return action


def route_table(rows: Iterable[Tuple[str, str, Any, str]],
                owner: Any) -> Dict[Tuple[str, str], Callable]:
    """The table of ``ROUTES`` rows — ``(method, "path?params", handler,
    purpose)`` — where a handler is ``fn(server, params)`` or the name of
    the *owner* method that is one (*owner* a server class, or an object
    whose bound methods answer)."""
    return {(method, spec.partition("?")[0]):
            getattr(owner, handler) if isinstance(handler, str) else handler
            for method, spec, handler, _ in rows}


def _json(payload: Any, status: int = 200) -> Response:
    return Response(json.dumps(payload).encode(), "application/json",
                    status)


class _Refused(Exception):
    """The bytes on the connection are not a request this server reads;
    the message is the ``reason`` the refusal is counted under."""


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: the request loop, the dispatch and the
    writers, on one thread."""

    server_version = "AkitaRTM/1.0"
    #: A kept-alive connection that stays silent this long is closed.
    timeout = 30.0
    #: Every response leaves in one write, so Nagle's algorithm has
    #: nothing to merge — only a delayed ACK to wait on.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server = self.server
        front = server.front
        try:
            try:
                while self._read_request():
                    with server.lock:
                        front.requests_served += 1
                    self._dispatch(front)
                    if self.close_connection or server.stopping.is_set():
                        return
            except _Refused as refused:
                self._refuse(str(refused))
        except OSError:
            pass  # reset, idle timeout, or stop() shut the connection

    # -- the dispatch ------------------------------------------------------
    def _dispatch(self, front: "HTTPServerThread") -> None:
        """Find the request's route, call it, answer, count."""
        method = self.command
        parsed = urlparse(self.path)
        endpoint = path = parsed.path
        routes = front.routes
        route = routes.get((method, path))
        if route is None and method not in front.unrouted_methods \
                and not any(m == method for m, _ in routes):
            allowed = ", ".join(sorted({m for m, _ in routes}
                                       | set(front.unrouted_methods)))
            self._respond(
                _json({"error": f"method {method!r} not allowed"}, 405),
                (("Allow", allowed),))
            return
        started = perf_counter()
        try:
            if route is None:
                route = front.resolve(method, path)
            if route is not None:
                answer = route(front, {key: values[0] for key, values
                                       in parse_qs(parsed.query).items()})
            else:
                endpoint = _UNMATCHED_LABEL
                answer = front.unrouted(method, path, parsed.query)
                endpoint = _UNROUTED_LABEL
            if not isinstance(answer, (Response, EventStream)):
                answer = _json(answer)
        except BadRequest as exc:
            answer = _json({"error": str(exc)}, 400)
        except NotFound as exc:
            answer = _json({"error": str(exc)}, 404)
        except Exception as exc:  # surface route bugs to the client
            answer = _json({"error": f"{type(exc).__name__}: {exc}"}, 500)
        if isinstance(answer, EventStream):
            # Long-lived: excluded from request-latency accounting.
            self._stream(answer)
            return
        try:
            self._respond(answer)
        finally:
            registry = front.request_registry
            if registry is not None:
                # The HTTP slice of Figure 7's overhead decomposition,
                # live.
                registry.counter(
                    "rtm_http_requests_total",
                    "HTTP requests served, by method and endpoint.",
                    ("method", "endpoint")).labels(method, endpoint).inc()
                registry.histogram(
                    "rtm_http_request_seconds",
                    "HTTP request handling latency, by endpoint.",
                    ("endpoint",), buckets=_HTTP_BUCKETS).labels(
                        endpoint).observe(perf_counter() - started)

    def _refuse(self, reason: str) -> None:
        """Damaged requests are counted and survived.  After a framing
        error no later byte can be trusted to start a request: answer
        400 and close."""
        registry = self.server.front.request_registry
        if registry is not None:
            registry.counter(
                "rtm_http_bad_requests_total",
                "Requests refused by the HTTP parser, by reason.",
                ("reason",)).labels(reason).inc()
        self.close_connection = True
        self._respond(_json(
            {"error": "bad request: " + reason.replace("_", " ")}, 400))

    # -- reading -----------------------------------------------------------
    def _read_line(self) -> bytes:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused("line_too_long")
        if line and not line.endswith(b"\n"):
            raise _Refused("truncated")
        return line

    def _read_request(self) -> bool:
        """Read the next request into ``command`` and ``path`` and
        decide whether the connection outlives it; ``False`` when the
        client has left."""
        line = self._read_line()
        if not line:
            return False
        words = str(line, "latin-1").split()
        if len(words) != 3 or not words[2].startswith("HTTP/1."):
            raise _Refused("request_line")
        self.command, self.path, version = words
        headers: Dict[str, str] = {}
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

    # -- writing -----------------------------------------------------------
    def _write(self, data: bytes) -> None:
        server = self.server
        with server.lock:  # counted first: whoever reads it, sees it
            server.front.response_writes += 1
        self.wfile.write(data)

    def _respond(self, response: Response,
                 extra_headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        """The one place a response head is written: status line,
        headers and body leave in a single write.  A ``None`` body
        (:meth:`_stream`'s) starts a response of unknown length, which
        only closing the connection ends."""
        body, content_type, status = response
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

    def _stream(self, stream: EventStream) -> None:
        self._respond(Response(None, "text/event-stream"),
                      (("Cache-Control", "no-cache"),))
        stopping = self.server.stopping
        sent = 0
        try:
            while True:
                for payload in stream.produce():
                    self._write(b"data: " + json.dumps(payload).encode()
                                + b"\n\n")
                    sent += 1
                    if stream.count and sent >= stream.count:
                        return
                if stream.keepalive:
                    self._write(b": keepalive\n\n")
                if stopping.wait(stream.interval):
                    return
        except OSError:
            pass  # client went away; nothing to report


class _ConnectionServer(socketserver.ThreadingTCPServer):
    """The accept loop under :class:`HTTPServerThread`: one daemon
    thread per client connection, each on record while it is open so
    that stopping the server can close it."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, front: "HTTPServerThread"):
        super().__init__(address, _Connection)
        #: Whose table the connections dispatch on.
        self.front = front
        self.stopping = threading.Event()
        #: Guards ``open`` and *front*'s three counters.
        self.lock = threading.Lock()
        self.open: Dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address), daemon=True,
            name=f"{self.front.thread_name}-conn")
        with self.lock:
            self.front.connections_accepted += 1
            self.open[request] = thread
        thread.start()

    def shutdown_request(self, request) -> None:
        with self.lock:
            self.open.pop(request, None)
        super().shutdown_request(request)


class HTTPServerThread:
    """Owns the route table, the listening socket, its accept thread
    and the connections.

    The reusable server shell: bind at construction time (so ``port=0``
    resolves to the ephemeral port before :meth:`start` returns), accept
    from a daemon thread, and expose a ``stopping`` event that long-
    lived answers (SSE streams) wait on between pushes so :meth:`stop`
    unparks them immediately instead of waiting out an interval.
    :meth:`stop` also shuts every kept-alive connection: a connection
    thread must not go on answering for a stopped server.
    """

    thread_name = "rtm-http"

    #: ``serve_forever`` wakes at this interval to notice ``shutdown()``;
    #: at the stdlib default (0.5 s) every server stop costs up to half
    #: a second of pure sleeping.
    poll_interval = 0.05

    #: A table every instance of the class serves (else per instance).
    routes: Dict[Tuple[str, str], Callable] = {}

    #: Methods :meth:`unrouted` answers besides the table's; a request
    #: in a method that neither holds is 405.
    unrouted_methods: Tuple[str, ...] = ()

    #: The registry requests and refusals are counted in, read per
    #: request; ``None``: nowhere.  Only ``RTMServer`` sets it.  The two
    #: gateways must not point it at their own ``registry``: that one is
    #: rendered as the *preamble* of the federated exposition
    #: (``federate()`` prepends it verbatim), so an ``rtm_http_*`` family
    #: in it would appear a second time beside each worker's own.
    request_registry = None

    def __init__(self, routes: Optional[Dict[Tuple[str, str], Callable]]
                 = None, host: str = "127.0.0.1", port: int = 0):
        if routes is not None:
            self.routes = routes
        #: The request path as host-independent counts (tier-1 gates
        #: them).
        self.connections_accepted = 0
        self.requests_served = 0
        self.response_writes = 0
        self._httpd = _ConnectionServer((host, port), self)
        self._thread: Optional[threading.Thread] = None
        self.host = host
        self.port = self._httpd.server_address[1]

    def resolve(self, method: str, path: str) -> Optional[Callable]:
        """A route the table did not hold when the request came."""
        return None

    def unrouted(self, method: str, path: str, query: str) -> Any:
        """Answer a request whose ``(method, path)`` the table does not
        hold, by the same return-or-raise contract as a route (static
        files, a reverse proxy: paths that are not one string)."""
        raise NotFound("not found")

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(self.poll_interval,),
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
                # Wakes a connection thread parked on a silent
                # kept-alive connection; one in mid-answer fails its
                # write.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the connection thread closed it first
        for thread in [self._thread] + [t for _, t in connections]:
            if thread is not None:
                thread.join(timeout=2.0)
        self._thread = None
