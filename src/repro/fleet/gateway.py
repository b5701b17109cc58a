"""The aggregating RTM gateway: one pane of glass for a whole fleet.

A fleet of workers each serves its own dashboard + API on an ephemeral
port.  The :class:`FleetGateway` is the stable front door:

=======  ===================================  ==========================
Method   Path                                 Purpose
=======  ===================================  ==========================
GET      /api/fleet                           workers, jobs, retries
GET      /api/fleet/profile                   campaign-wide merged profile
GET      /api/fleet/jobs/<job>/metrics        one job's final exposition
GET      /api/fleet/<worker>/<rest...>        reverse proxy to worker
POST     /api/fleet/<worker>/<rest...>        (same — control actions)
DELETE   /api/fleet/<worker>/<rest...>        (same)
GET      /metrics                             federated exposition
GET      /api/historian                       recording service status
GET      /api/historian/campaigns             campaigns in the store
GET      /api/historian/query                 filtered records
GET      /api/historian/compare?a=&b=         two campaigns diffed
GET      /api/historian/alerts                rules + transitions
GET      /api/historian/stream                SSE alert transitions
POST     /api/historian/rules                 add an alert rule
DELETE   /api/historian/rules?id=             remove an alert rule
=======  ===================================  ==========================

The historian routes exist when a :class:`~repro.historian.
HistorianService` has bound itself to the gateway (``fleet run
--historian <db>`` does this); otherwise they answer 400.

The reverse proxy makes every single-simulation view of the paper reach
fleet scale unchanged: ``/api/fleet/w3/api/buffers`` is worker w3's
bottleneck table, ``/api/fleet/w3/api/hang`` its hang verdict.  (The
``jobs`` segment is reserved for the per-job route, so a worker cannot
be named ``jobs``.)

``/metrics`` federates: the gateway's own fleet-level families (jobs by
state, live workers, retries, worker restarts — un-labelled) followed
by per-job expositions, each sample labelled with **both**
``worker="wN"`` and ``job="<job_id>"`` — one long-lived worker
produces series for many jobs, so the worker label alone does not
identify a run.  Completed jobs come from the
control-channel cache (their worker may have moved on to another job,
or died); jobs still running are scraped live from their worker.  Each
job appears exactly once per scrape, so one scrape taken after the
campaign carries every job's final series.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from ..core.server import (
    BadRequest,
    HTTPServerThread,
    JSONRequestHandler,
)
from ..metrics import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..metrics import (MetricRegistry, expose, federate_sources,
                       inject_labels)
from ..metrics.federation import SCRAPE_TIMEOUT

__all__ = ["FleetGateway"]


class _GatewayHandler(JSONRequestHandler):
    """Routes gateway requests; ``gateway`` injected via subclassing."""

    gateway = None  # type: Optional[FleetGateway]

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    def _route(self, method: str) -> None:
        path, params = self._query()
        try:
            if path == "/metrics" and method == "GET":
                body = self.gateway.federated_metrics().encode()
                self._send_body(body, _PROM_CONTENT_TYPE)
            elif path == "/api/fleet" and method == "GET":
                self._send_json(self.gateway.status())
            elif path == "/api/fleet/profile" and method == "GET":
                self._send_json(
                    self.gateway.campaign_profile(params))
            elif (path == "/api/historian/stream"
                  and method == "GET"):
                self._historian_stream(params)
            elif path.startswith("/api/historian"):
                self._historian(method, path, params)
            elif (method == "GET"
                  and path.startswith("/api/fleet/jobs/")
                  and path.endswith("/metrics")):
                job_id = path[len("/api/fleet/jobs/"):-len("/metrics")]
                text = self.gateway.job_metrics(job_id.rstrip("/"))
                if text is None:
                    self._send_error_json(
                        f"no final metrics for job {job_id!r}", 404)
                else:
                    self._send_body(text.encode(), _PROM_CONTENT_TYPE)
            elif path.startswith("/api/fleet/"):
                self._proxy(method, path)
            else:
                self._send_error_json("not found", 404)
        except BadRequest as exc:
            self._send_error_json(str(exc), 400)
        except Exception as exc:  # surface handler bugs to the client
            self._send_error_json(f"{type(exc).__name__}: {exc}", 500)

    # ------------------------------------------------------------------
    # Historian (the durable campaign record behind this gateway)
    # ------------------------------------------------------------------
    def _historian_service(self):
        service = self.gateway.historian
        if service is None:
            raise BadRequest("historian not enabled for this campaign "
                             "(start the fleet with --historian)")
        return service

    def _historian(self, method: str, path: str,
                   params: Dict[str, str]) -> None:
        service = self._historian_service()
        store = service.historian
        if path == "/api/historian" and method == "GET":
            self._send_json(service.status())
        elif path == "/api/historian/campaigns" and method == "GET":
            self._send_json({"campaigns": store.campaigns()})
        elif path == "/api/historian/query" and method == "GET":
            filters: Dict[str, Any] = {}
            if "campaign" in params:
                filters["campaign_id"] = params["campaign"]
            for key in ("kind", "name"):
                if key in params:
                    filters[key] = params[key]
            for key in ("since", "until"):
                if key in params:
                    try:
                        filters[key] = float(params[key])
                    except ValueError:
                        raise BadRequest(f"bad {key!r}: not a number")
            try:
                limit = int(params.get("limit", "1000"))
            except ValueError:
                raise BadRequest("bad 'limit': not an integer")
            self._send_json(
                {"records": store.query(limit=limit, **filters)})
        elif path == "/api/historian/compare" and method == "GET":
            a, b = params.get("a"), params.get("b")
            if not a or not b:
                raise BadRequest("compare needs ?a=<campaign>&"
                                 "b=<campaign>")
            self._send_json(store.compare(a, b))
        elif path == "/api/historian/alerts" and method == "GET":
            engine = service.engine
            self._send_json({"rules": engine.to_dict(),
                             "transitions": engine.transitions})
        elif path == "/api/historian/rules" and method == "POST":
            self._send_json(
                {"rule": self.gateway.add_historian_rule(params)})
        elif path == "/api/historian/rules" and method == "DELETE":
            try:
                rule_id = int(params.get("id", ""))
            except ValueError:
                raise BadRequest("rule DELETE needs ?id=<int>")
            self._send_json(
                {"removed": service.remove_rule(rule_id)})
        else:
            self._send_error_json("not found", 404)

    def _historian_stream(self, params: Dict[str, str]) -> None:
        """SSE of deduplicated alert-rule transitions.

        ``since`` is a sequence-number cursor (default: only
        transitions after the connection opens), ``count`` closes the
        stream after N events — how a test proves "exactly once"."""
        service = self._historian_service()
        engine = service.engine
        try:
            interval = max(0.05, float(params.get("interval", "0.25")))
            count = int(params.get("count", "0"))
            if "since" in params:
                cursor = int(params["since"])
            else:
                transitions = engine.transitions
                cursor = transitions[-1]["seq"] if transitions else 0
        except ValueError as exc:
            raise BadRequest(f"bad stream parameter: {exc}") from None

        def new_transitions():
            nonlocal cursor
            events = engine.transitions_since(cursor)
            if events:
                cursor = events[-1]["seq"]
            return events

        # Keepalive: an idle stream must not trip the client's socket
        # timeout while a campaign warms up.
        self._send_event_stream(new_transitions, interval, count,
                                keepalive=True)

    def _proxy(self, method: str, path: str) -> None:
        remainder = path[len("/api/fleet/"):]
        worker_id, _, sub_path = remainder.partition("/")
        if not worker_id or not sub_path:
            raise BadRequest(
                "expected /api/fleet/<worker>/<endpoint>")
        query = self.path.partition("?")[2]
        target = "/" + sub_path + ("?" + query if query else "")
        status, content_type, body = self.gateway.proxy(
            method, worker_id, target)
        self._send_body(body, content_type, status)


class FleetGateway(HTTPServerThread):
    """The fleet's front server.

    *manager* needs four methods — ``live_workers() -> {id: url}``,
    ``scrape_targets() -> [{worker_id, job_id, url}]`` (live workers
    currently running a job), ``final_metrics() -> {job_id: {worker_id,
    attempt, text}}`` and ``status() -> dict`` — which
    :class:`~repro.fleet.manager.FleetManager` provides; anything with
    that shape (a test stub, a remote registry) federates too.
    """

    thread_name = "rtm-fleet-gateway"

    def __init__(self, manager, host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        self.registry = MetricRegistry()
        #: Set by HistorianService.bind_gateway: enables the
        #: /api/historian/* routes and the alert-transition SSE stream.
        self.historian = None
        self._install_fleet_metrics()
        handler = type("BoundGatewayHandler", (_GatewayHandler,),
                       {"gateway": self})
        super().__init__(handler, host=host, port=port)

    # ------------------------------------------------------------------
    # Fleet-level metric families (the gateway's own, un-labelled)
    # ------------------------------------------------------------------
    def _install_fleet_metrics(self) -> None:
        states = ("queued", "running", "completed", "failed")
        jobs = self.registry.gauge(
            "rtm_fleet_jobs", "Fleet jobs by state.", ("state",))
        workers = self.registry.gauge(
            "rtm_fleet_workers_live",
            "Worker subprocesses currently registered and serving.")
        retries = self.registry.gauge(
            "rtm_fleet_job_retries_total",
            "Failed job attempts that were requeued by the restart "
            "policy.")
        restarts = self.registry.gauge(
            "rtm_fleet_worker_restarts_total",
            "Crashed warm workers replaced by the manager's recycle "
            "policy.")

        def collect() -> None:
            status = self.manager.status()
            summary = status.get("summary", {})
            for state in states:
                jobs.labels(state).set(float(summary.get(state, 0)))
            workers.set(float(len(self.manager.live_workers())))
            retries.set(float(summary.get("retries", 0)))
            restarts.set(float(status.get("worker_restarts", 0)))

        self.registry.add_collector(collect)

    # ------------------------------------------------------------------
    # Historian rule administration (HTTP -> MetricRule)
    # ------------------------------------------------------------------
    def add_historian_rule(self, params: Dict[str, str]
                           ) -> Dict[str, Any]:
        """Create a rule from query parameters: ``family`` (required),
        ``op``, ``threshold``, ``kind``, ``for`` (hold seconds),
        ``labels`` as ``k=v`` pairs joined by commas, ``name``."""
        from ..historian.rules import MetricRule
        if self.historian is None:
            raise BadRequest("historian not enabled")
        family = params.get("family", "")
        if not family:
            raise BadRequest("rule needs ?family=<metric family>")
        labels: Dict[str, str] = {}
        for pair in filter(None, params.get("labels", "").split(",")):
            key, sep, value = pair.partition("=")
            if not sep:
                raise BadRequest(f"bad label pair {pair!r}; use k=v")
            labels[key.strip()] = value.strip()
        try:
            rule = MetricRule(
                family=family,
                op=params.get("op", ">="),
                threshold=float(params.get("threshold", "0")),
                kind=params.get("kind", "threshold"),
                labels=labels,
                for_seconds=float(params.get("for", "0")),
                name=params.get("name", ""))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return self.historian.add_rule(rule).to_dict()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        status = self.manager.status()
        status["gateway_url"] = self.url
        return status

    def federated_metrics(self) -> str:
        """One exposition for the whole fleet (see module docstring):
        per-job expositions, each labelled ``(worker, job)``.  A job's
        final exposition (from the manager's control-channel cache)
        wins over a live scrape of the same job — see
        :func:`~repro.metrics.federation.federate_sources`."""
        finals = self.manager.final_metrics()
        sources = [
            (f"worker {entry.get('worker_id')}",
             {"worker": str(entry.get("worker_id")), "job": job_id},
             entry["text"], None)
            for job_id, entry in sorted(finals.items())]
        sources += [
            (f"worker {target['worker_id']}",
             {"worker": target["worker_id"], "job": target["job_id"]},
             None, target["url"])
            for target in sorted(self.manager.scrape_targets(),
                                 key=lambda t: (t["worker_id"],
                                                t["job_id"]))
            # a final already landed; don't double-count
            if target["job_id"] not in finals]
        return federate_sources(sources,
                                preamble=expose(self.registry))

    def campaign_profile(self, params: Optional[Dict[str, str]] = None
                         ) -> Dict[str, Any]:
        """The campaign-wide profile: every job's control-channel
        profile summary merged into one attribution view.  With
        ``?format=speedscope`` the merged stacks are returned as one
        loadable speedscope document instead."""
        from ..profile import merge_summaries, speedscope_document, \
            summary_stack_map
        profiles = self.manager.profiles()
        merged = merge_summaries(
            entry["summary"] for _, entry in sorted(profiles.items()))
        fmt = (params or {}).get("format", "summary")
        if fmt == "speedscope":
            return speedscope_document(summary_stack_map(merged),
                                       name="fleet campaign profile")
        if fmt != "summary":
            raise BadRequest(
                f"format must be 'summary' or 'speedscope', got {fmt!r}")
        return {
            "jobs": {job_id: {"worker_id": entry.get("worker_id"),
                              "attempt": entry.get("attempt", 0)}
                     for job_id, entry in sorted(profiles.items())},
            "profile": merged,
        }

    def job_metrics(self, job_id: str) -> Optional[str]:
        """One job's final exposition, ``(worker, job)``-labelled like
        the federated view; ``None`` if the job never shipped one."""
        entry = self.manager.final_metrics().get(job_id)
        if entry is None:
            return None
        return inject_labels(
            entry["text"],
            {"worker": str(entry.get("worker_id")), "job": job_id})

    # ------------------------------------------------------------------
    # Reverse proxy
    # ------------------------------------------------------------------
    def proxy(self, method: str, worker_id: str,
              target: str) -> Tuple[int, str, bytes]:
        """Forward one request to *worker_id*; returns
        ``(status, content_type, body)``.  Unknown workers are 404,
        dead ones 502 — the distinction a retrying client needs."""
        url = self.manager.live_workers().get(worker_id)
        if url is None:
            return (404, "application/json",
                    json.dumps({"error":
                                 f"unknown or exited worker "
                                 f"{worker_id!r}"}).encode())
        try:
            with urlopen(Request(url + target, method=method),
                         timeout=SCRAPE_TIMEOUT) as response:
                content_type = response.headers.get(
                    "Content-Type", "application/octet-stream")
                return response.status, content_type, response.read()
        except HTTPError as exc:
            # The worker's own verdict (400/404/...) passes through.
            return (exc.code,
                    exc.headers.get("Content-Type", "application/json"),
                    exc.read())
        except (URLError, TimeoutError, ConnectionError, OSError) as exc:
            return (502, "application/json",
                    json.dumps({"error":
                                 f"worker {worker_id!r} unreachable: "
                                 f"{exc}"}).encode())
