"""A Python client of the AkitaRTM HTTP API.

Used by the test suite, the Figure 7 benchmark harness (scenario 4's
"automated clicks at one-second intervals" are issued through this
client), and the simulated user study, whose participant agents interact
with the monitor exactly the way the web frontend does — over HTTP.

A client holds one HTTP/1.1 connection and keeps it alive between
calls (:meth:`RTMClient.close`, or ``with RTMClient(url) as client:``,
releases it).  Calls from several threads are answered one at a time;
give each thread its own client to have them answered side by side.

GET requests are idempotent, so transient transport failures (socket
timeouts while the simulation thread hogs the GIL, resets mid-response)
are retried with exponential backoff and jitter up to ``max_retries``
times.  POST/DELETE are never retried — a timed-out control request may
still have been applied — and for the same reason never ride a reused
connection: one that the server closed while it idled fails only after
the request was written.  A GET that finds its kept-alive connection
closed reopens it once; that is not a retry.

Connection *refused* is different: the kernel answered immediately and
definitively — nothing is listening on that port.  In a fleet, that is
the signature of a dead worker, and burning the full backoff budget on
it would stall every scrape behind the corpse.  Refused connections
therefore fast-fail with :class:`RTMConnectionError`.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import Any, Dict, Iterator, List, Optional
from urllib.parse import urlencode, urlsplit

from .atomicio import atomic_write_text


class RTMClientError(RuntimeError):
    """An API call failed (HTTP error or server-reported error)."""


class RTMConnectionError(RTMClientError):
    """Nothing is listening at the target address (connection refused).

    Raised without consuming the retry/backoff budget: a refused
    connection is an immediate kernel-level verdict, not a transient
    timeout, so callers probing possibly-dead workers get their answer
    in microseconds instead of after a full backoff cycle.
    """


class RTMClient:
    """Thin wrapper over the REST endpoints.

    Parameters
    ----------
    url:
        Base URL, e.g. ``"http://127.0.0.1:8080"``.
    timeout:
        Per-request socket timeout in seconds.
    max_retries:
        How many times an idempotent GET is retried after a transient
        transport error (0 disables retries).  HTTP error statuses
        (4xx/5xx) are server verdicts, not transport failures, and are
        never retried.
    backoff:
        Initial retry delay in seconds; doubles per attempt, with up to
        50% uniform jitter added to avoid retry stampedes.
    """

    def __init__(self, url: str, timeout: float = 5.0,
                 max_retries: int = 3, backoff: float = 0.05):
        self.base = url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.retry_count = 0  # total transient retries, for tests/stats
        self._sleep = time.sleep  # injectable for tests
        parts = urlsplit(self.base)
        self._prefix = parts.path
        # http.client has no HTTPSConnection on a Python built without
        # ssl, so the name is looked up for an https URL only.
        connection = (http.client.HTTPSConnection
                      if parts.scheme == "https" else HTTPConnection)
        # Connects at the first request, and again after any close().
        self._conn = connection(parts.netloc, timeout=timeout)
        self._lock = threading.Lock()  # one request at a time

    def close(self) -> None:
        """Release the connection; the next call opens a new one."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "RTMClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------
    def _call(self, method: str, endpoint: str,
              params: Optional[Dict[str, Any]] = None,
              parse_json: bool = True, stream: bool = False) -> Any:
        """One API call under the retry rules of the module docstring;
        *parse_json* and *stream* are :meth:`_request`'s."""
        target = f"{self._prefix}{endpoint}"
        if params:
            target += "?" + urlencode(params)
        attempts = 1 + (self.max_retries if method == "GET" else 0)
        for attempt in range(attempts):
            try:
                return self._request(method, endpoint, target,
                                     parse_json, stream)
            except RTMClientError:
                raise  # server verdict (HTTP status) — never retry
            except (OSError, HTTPException) as exc:
                if isinstance(exc, ConnectionRefusedError):
                    raise RTMConnectionError(
                        f"{method} {endpoint}: connection refused — "
                        f"nothing listening at {self.base}") from exc
                if attempt == attempts - 1:
                    raise RTMClientError(
                        f"{method} {endpoint}: {exc} "
                        f"(after {attempt + 1} attempts)") from exc
                self.retry_count += 1
                delay = self.backoff * (2 ** attempt)
                self._sleep(delay * (1.0 + random.uniform(0.0, 0.5)))

    def _request(self, method: str, endpoint: str, target: str,
                 parse_json: bool = True, stream: bool = False) -> Any:
        """One request and its answer over the client's connection:
        parsed JSON, the text itself, or — *stream* — an iterator over
        a Server-Sent-Events body, which takes the connection with it."""
        conn = self._conn
        with self._lock:
            if method != "GET":
                conn.close()
            reused = conn.sock is not None
            try:
                try:
                    conn.request(method, target)
                    response = conn.getresponse()
                except ConnectionError:
                    # The server closed a connection it had kept alive
                    # (idle timeout, restart) before one response byte.
                    if not reused:
                        raise
                    conn.close()
                    conn.request(method, target)
                    response = conn.getresponse()
                if stream and response.status < 400:
                    return self._iter_sse(response)
                body = response.read().decode()
            except BaseException:
                conn.close()  # mid-exchange: not reusable
                raise
        if response.status >= 400:
            try:
                detail = json.loads(body).get("error", "")
            except (ValueError, AttributeError):
                detail = ""
            raise RTMClientError(
                f"{method} {endpoint} -> {response.status}: {detail}")
        return json.loads(body) if parse_json else body

    def _get(self, endpoint: str, **params) -> Any:
        return self._call("GET", endpoint, params or None)

    def _post(self, endpoint: str, **params) -> Any:
        return self._call("POST", endpoint, params or None)

    # -- monitoring views ---------------------------------------------------
    def overview(self) -> Dict[str, Any]:
        return self._get("/api/overview")

    def resources(self) -> Dict[str, Any]:
        return self._get("/api/resources")

    def components(self) -> List[str]:
        return self._get("/api/components")["names"]

    def component_tree(self) -> Dict[str, Any]:
        return self._get("/api/components")["tree"]

    def component(self, name: str) -> Dict[str, Any]:
        return self._get("/api/component", name=name)

    def value(self, component: str, path: str) -> Optional[float]:
        return self._get("/api/value", component=component,
                         path=path)["value"]

    def buffers(self, sort: str = "percent",
                top: int = 50) -> List[Dict[str, Any]]:
        return self._get("/api/buffers", sort=sort, top=top)["buffers"]

    def progress(self) -> List[Dict[str, Any]]:
        return self._get("/api/progress")["bars"]

    def hang(self) -> Dict[str, Any]:
        return self._get("/api/hang")

    def profile(self, top: int = 15) -> Dict[str, Any]:
        return self._get("/api/profile", top=top)

    def watches(self) -> List[Dict[str, Any]]:
        return self._get("/api/watches")["watches"]

    def topology(self) -> Dict[str, Any]:
        return self._get("/api/topology")

    def throughput(self, component: str) -> List[Dict[str, Any]]:
        return self._get("/api/throughput", component=component)["ports"]

    def alerts(self) -> List[Dict[str, Any]]:
        return self._get("/api/alerts")["alerts"]

    def add_alert(self, component: str, path: str, op: str,
                  threshold: float, duration: float = 0.0,
                  action: str = "notify") -> int:
        return self._post("/api/alert", component=component, path=path,
                          op=op, threshold=threshold, duration=duration,
                          action=action)["id"]

    def remove_alert(self, rule_id: int) -> bool:
        return self._call("DELETE", "/api/alert",
                          {"id": rule_id})["removed"]

    # -- fault injection & supervision --------------------------------------
    def faults(self) -> Dict[str, Any]:
        return self._get("/api/faults")

    def inject_fault(self, kind: str, target: str,
                     **params) -> Dict[str, Any]:
        """Arm a fault (kind: drop/delay/stall/pin_buffer/kill_port);
        extra keywords (start, end, probability, delay, seed) pass
        through to the spec."""
        return self._post("/api/faults", kind=kind, target=target,
                          **params)

    def revoke_fault(self, spec_id: int) -> bool:
        return self._call("DELETE", "/api/faults",
                          {"id": spec_id})["removed"]

    def watchdog(self) -> Dict[str, Any]:
        return self._get("/api/watchdog")

    def watchdog_start(self, **config) -> Dict[str, Any]:
        return self._post("/api/watchdog", action="start", **config)

    def watchdog_stop(self) -> Dict[str, Any]:
        return self._post("/api/watchdog", action="stop")

    def checkpoint(self) -> Dict[str, Any]:
        """Checkpointer status (cadence, count, last snapshot meta)."""
        return self._get("/api/checkpoint")

    def checkpoint_save(self) -> Dict[str, Any]:
        """Force one snapshot now (pauses the engine at an event
        boundary first).  POST — never retried."""
        return self._post("/api/checkpoint", action="save")

    # -- tracing -------------------------------------------------------------
    def trace(self) -> Dict[str, Any]:
        """Tracer status + store stats (GET; retried like any view)."""
        return self._get("/api/trace")

    def trace_start(self, **config) -> Dict[str, Any]:
        """Attach and start the tracer (backend/capacity/db/include
        keywords pass through).  POST — never retried."""
        return self._post("/api/trace", action="start", **config)

    def trace_stop(self) -> Dict[str, Any]:
        return self._post("/api/trace", action="stop")

    def trace_clear(self) -> Dict[str, Any]:
        return self._post("/api/trace", action="clear")

    def trace_query(self, **filters) -> List[Dict[str, Any]]:
        """Filtered events (component regex, kind, t0/t1, msg_id,
        limit)."""
        return self._get("/api/trace/query", **filters)["events"]

    def trace_follow(self, msg_id: int) -> Dict[str, Any]:
        """One message's recorded hops plus the rendered path."""
        return self._get("/api/trace/follow", msg_id=msg_id)

    def trace_export(self, format: str = "jsonl",
                     path: Optional[str] = None, limit: int = 0) -> Any:
        """Export the store: the document itself, also written to
        *path* on this side when one is given (a request never names a
        file the server writes)."""
        document = self._get("/api/trace/export", format=format,
                             limit=limit)
        if path is not None:
            text = ("".join(json.dumps(row) + "\n" for row in document)
                    if format == "jsonl" else json.dumps(document))
            atomic_write_text(path, text)
        return document

    # -- metrics -------------------------------------------------------------
    def metrics_snapshot(self, delta: bool = False,
                         names: Optional[str] = None) -> Dict[str, Any]:
        """The registry as JSON (GET — retried like any view).  With
        ``delta=True`` counters/histograms are differences since the
        previous delta request."""
        params: Dict[str, Any] = {}
        if delta:
            params["delta"] = 1
        if names is not None:
            params["names"] = names
        return self._get("/api/metrics", **params)["metrics"]

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition of ``/metrics``."""
        return self._call("GET", "/metrics", parse_json=False)

    def metrics_start(self, **config) -> Dict[str, Any]:
        """Attach simulation instrumentation.  POST — never retried."""
        return self._post("/api/metrics", action="start", **config)

    def metrics_stop(self) -> Dict[str, Any]:
        return self._post("/api/metrics", action="stop")

    def metrics_stream(self, interval: float = 0.5,
                       max_events: Optional[int] = None,
                       names: Optional[str] = None,
                       attach: bool = True
                       ) -> Iterator[Dict[str, Any]]:
        """Iterate Server-Sent Events from ``/api/stream``.

        Establishing the connection follows the GET retry rules
        (idempotent, transient transport errors backed off); once the
        stream is open a broken connection simply ends the iterator —
        re-calling resumes with fresh snapshots.  Pass ``attach=False``
        to observe overview/resources without attaching simulation
        instrumentation (the metrics dict then only carries server-side
        families).
        """
        params: Dict[str, Any] = {"interval": interval}
        if max_events is not None:
            params["count"] = max_events
        if names is not None:
            params["names"] = names
        if not attach:
            params["attach"] = "0"
        return self._call("GET", "/api/stream", params, stream=True)

    @staticmethod
    def _iter_sse(response) -> Iterator[Dict[str, Any]]:
        data_lines: List[str] = []
        try:
            with response:
                for raw in response:
                    line = raw.decode().rstrip("\r\n")
                    if line.startswith("data:"):
                        data_lines.append(line[5:].lstrip())
                    elif not line and data_lines:
                        yield json.loads("\n".join(data_lines))
                        data_lines = []
        except (OSError, HTTPException):
            return  # stream ended; caller may reconnect

    # -- fleet (gateway endpoints) -------------------------------------------
    def fleet_status(self) -> Dict[str, Any]:
        """The aggregating gateway's fleet view: workers, jobs, queue
        counters.  Only meaningful against a
        :class:`repro.fleet.FleetGateway` URL."""
        return self._get("/api/fleet")

    def fleet_worker_get(self, worker_id: str, endpoint: str,
                         **params) -> Any:
        """Call one worker's own API through the gateway's reverse
        proxy, e.g. ``fleet_worker_get("w1", "/api/overview")``."""
        return self._get(f"/api/fleet/{worker_id}{endpoint}", **params)

    def fleet_profile(self, format: str = "summary") -> Dict[str, Any]:
        """The campaign-wide merged profile (``format='speedscope'``
        for a loadable speedscope document instead)."""
        return self._get("/api/fleet/profile", format=format)

    def fleet_job_metrics(self, job_id: str) -> str:
        """One job's final Prometheus exposition (``worker``/``job``
        labelled), served from the gateway's control-channel cache —
        available long after the worker that ran the job moved on to
        another job or exited.  Raises :class:`RTMClientError` (404)
        while the job has not shipped a final exposition yet."""
        return self._call("GET", f"/api/fleet/jobs/{job_id}/metrics",
                          parse_json=False)

    # -- historian (gateway endpoints) ---------------------------------------
    def historian_status(self) -> Dict[str, Any]:
        """The recording service's view: campaign id, record counts,
        rules, store health.  Only meaningful against a gateway whose
        campaign runs with ``--historian``."""
        return self._get("/api/historian")

    def historian_campaigns(self) -> List[Dict[str, Any]]:
        return self._get("/api/historian/campaigns")["campaigns"]

    def historian_query(self, campaign: Optional[str] = None,
                        kind: Optional[str] = None,
                        name: Optional[str] = None,
                        since: Optional[float] = None,
                        until: Optional[float] = None,
                        limit: int = 1000) -> List[Dict[str, Any]]:
        """Filtered historian records (CRC-verified server side)."""
        params: Dict[str, Any] = {"limit": limit}
        for key, value in (("campaign", campaign), ("kind", kind),
                           ("name", name), ("since", since),
                           ("until", until)):
            if value is not None:
                params[key] = value
        return self._get("/api/historian/query", **params)["records"]

    def historian_compare(self, a: str, b: str) -> Dict[str, Any]:
        """Diff two campaigns: every job of both, per-family deltas."""
        return self._get("/api/historian/compare", a=a, b=b)

    def historian_alerts(self) -> Dict[str, Any]:
        """The rule engine's rules and transition log."""
        return self._get("/api/historian/alerts")

    def historian_add_rule(self, family: str, op: str = ">=",
                           threshold: float = 0.0,
                           kind: str = "threshold",
                           labels: Optional[Dict[str, str]] = None,
                           for_seconds: float = 0.0,
                           name: str = "") -> Dict[str, Any]:
        """Install a metric alert rule.  POST — never retried."""
        params: Dict[str, Any] = {"family": family, "op": op,
                                  "threshold": threshold, "kind": kind}
        if labels:
            params["labels"] = ",".join(f"{k}={v}"
                                        for k, v in labels.items())
        if for_seconds:
            params["for"] = for_seconds
        if name:
            params["name"] = name
        return self._post("/api/historian/rules", **params)["rule"]

    def historian_remove_rule(self, rule_id: int) -> bool:
        return self._call("DELETE", "/api/historian/rules",
                          {"id": rule_id})["removed"]

    def historian_stream(self, interval: float = 0.25,
                         max_events: Optional[int] = None,
                         since: Optional[int] = None
                         ) -> Iterator[Dict[str, Any]]:
        """Iterate alert-transition SSE events from
        ``/api/historian/stream``.  With *max_events* the server closes
        the stream after that many transitions; *since* replays from a
        sequence cursor (default: only new transitions)."""
        params: Dict[str, Any] = {"interval": interval}
        if max_events is not None:
            params["count"] = max_events
        if since is not None:
            params["since"] = since
        return self._call("GET", "/api/historian/stream", params,
                          stream=True)

    # -- controls -----------------------------------------------------------
    def pause(self) -> None:
        self._post("/api/pause")

    def continue_(self) -> None:
        self._post("/api/continue")

    def kickstart(self) -> None:
        self._post("/api/kickstart")

    def throttle(self, events_per_second: float) -> None:
        self._post("/api/throttle", events_per_second=events_per_second)

    def tick(self, component: str) -> None:
        self._post("/api/tick", component=component)

    def profile_start(self) -> None:
        self._post("/api/profile/start")

    def profile_stop(self) -> None:
        self._post("/api/profile/stop")

    # -- continuous profiling / overhead attribution -----------------------
    def profile_windows(self, last: int = 0) -> Dict[str, Any]:
        """Rolling-profiler status + the most recent window digests."""
        return self._get("/api/profile/windows", last=last)

    def profile_attribution(self, last: int = 0,
                            top: int = 20) -> Dict[str, Any]:
        """Overhead decomposed by named layer over recent windows."""
        return self._get("/api/profile/attribution", last=last, top=top)

    def profile_export(self, format: str = "speedscope",
                       last: int = 0) -> Any:
        """A collapsed-stack text or speedscope/summary JSON export."""
        params: Dict[str, Any] = {"format": format, "last": last}
        if format == "collapsed":
            return self._call("GET", "/api/profile/export", params,
                              parse_json=False)
        return self._call("GET", "/api/profile/export", params)

    def watch(self, component: str, path: str) -> int:
        return self._post("/api/watch", component=component,
                          path=path)["id"]

    def unwatch(self, watch_id: int) -> bool:
        return self._call("DELETE", "/api/watch",
                          {"id": watch_id})["removed"]
