"""The aggregating RTM gateway: one pane of glass for a whole fleet.

A fleet of workers each serves its own dashboard + API on an ephemeral
port.  The :class:`FleetGateway` is the stable front door: the routes
of :data:`ROUTES`, and two families of paths that are not one string —

=======  ===================================  ==========================
Method   Path                                 Purpose
=======  ===================================  ==========================
GET      /api/fleet/jobs/<job>/metrics        one job's final exposition
GET      /api/fleet/<worker>/<rest...>        reverse proxy to worker
POST     /api/fleet/<worker>/<rest...>        (same — control actions)
DELETE   /api/fleet/<worker>/<rest...>        (same)
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
from typing import Any, Dict, Optional
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from ..core.http import (BadRequest, EventStream, HTTPServerThread,
                         NotFound, Response, float_param, int_param,
                         route_table)
from ..metrics import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..metrics import (MetricRegistry, expose, federate_sources,
                       inject_labels)
from ..metrics.federation import SCRAPE_TIMEOUT

__all__ = ["FleetGateway"]

#: ``(method, "path?parameters", FleetGateway method, purpose)``
ROUTES = (
    ("GET", "/api/fleet", "status", "workers, jobs, retries"),
    ("GET", "/api/fleet/profile?format", "campaign_profile",
     "campaign-wide merged profile"),
    ("GET", "/metrics", "_prometheus", "federated exposition"),
    ("GET", "/api/historian", "_historian_status",
     "recording service status"),
    ("GET", "/api/historian/campaigns", "_historian_campaigns",
     "campaigns in the store"),
    ("GET", "/api/historian/query?campaign&kind&name&since&until&limit",
     "_historian_query", "filtered records"),
    ("GET", "/api/historian/compare?a&b", "_historian_compare",
     "two campaigns diffed"),
    ("GET", "/api/historian/alerts", "_historian_alerts",
     "rules + transitions"),
    ("GET", "/api/historian/stream?interval&count&since",
     "_historian_stream", "SSE alert transitions"),
    ("POST", "/api/historian/rules?family&op&threshold&kind&for&labels"
     "&name", "_add_historian_rule", "add an alert rule"),
    ("DELETE", "/api/historian/rules?id", "_remove_historian_rule",
     "remove an alert rule"),
)


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
        #: The fleet-level families: the preamble of the federated
        #: exposition, which is why it is not the transport's
        #: ``request_registry`` (see there).
        self.registry = MetricRegistry()
        #: Set by HistorianService.bind_gateway: enables the
        #: /api/historian/* routes and the alert-transition SSE stream.
        self.historian = None
        self._install_fleet_metrics()
        super().__init__(route_table(ROUTES, type(self)), host=host,
                         port=port)

    def unrouted(self, method: str, path: str, query: str) -> Response:
        """The two path families of the module docstring."""
        if (method == "GET" and path.startswith("/api/fleet/jobs/")
                and path.endswith("/metrics")):
            return self._job_metrics(
                path[len("/api/fleet/jobs/"):-len("/metrics")].rstrip("/"))
        if path.startswith("/api/fleet/"):
            return self._proxy(method, path, query)
        raise NotFound("not found")

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
    # Historian (the durable campaign record behind this gateway)
    # ------------------------------------------------------------------
    def _historian_service(self):
        service = self.historian
        if service is None:
            raise BadRequest("historian not enabled for this campaign "
                             "(start the fleet with --historian)")
        return service

    def _historian_status(self, params):
        return self._historian_service().status()

    def _historian_campaigns(self, params):
        store = self._historian_service().historian
        return {"campaigns": store.campaigns()}

    def _historian_query(self, params):
        store = self._historian_service().historian
        filters: Dict[str, Any] = {}
        if "campaign" in params:
            filters["campaign_id"] = params["campaign"]
        for key in ("kind", "name"):
            if key in params:
                filters[key] = params[key]
        for key in ("since", "until"):
            if key in params:
                filters[key] = float_param(params, key)
        limit = int_param(params, "limit", 1000)
        return {"records": store.query(limit=limit, **filters)}

    def _historian_compare(self, params):
        store = self._historian_service().historian
        a, b = params.get("a"), params.get("b")
        if not a or not b:
            raise BadRequest("compare needs ?a=<campaign>&b=<campaign>")
        return store.compare(a, b)

    def _historian_alerts(self, params):
        engine = self._historian_service().engine
        return {"rules": engine.to_dict(),
                "transitions": engine.transitions}

    def _historian_stream(self, params):
        """SSE of deduplicated alert-rule transitions.

        ``since`` is a sequence-number cursor (default: only
        transitions after the connection opens), ``count`` closes the
        stream after N events — how a test proves "exactly once"."""
        engine = self._historian_service().engine
        interval = max(0.05, float_param(params, "interval", 0.25))
        count = int_param(params, "count", 0)
        if "since" in params:
            cursor = int_param(params, "since", 0)
        else:
            transitions = engine.transitions
            cursor = transitions[-1]["seq"] if transitions else 0

        def new_transitions():
            nonlocal cursor
            events = engine.transitions_since(cursor)
            if events:
                cursor = events[-1]["seq"]
            return events

        # Keepalive: an idle stream must not trip the client's socket
        # timeout while a campaign warms up.
        return EventStream(new_transitions, interval, count, keepalive=True)

    def _add_historian_rule(self, params):
        """Create a rule from query parameters: ``family`` (required),
        ``op``, ``threshold``, ``kind``, ``for`` (hold seconds),
        ``labels`` as ``k=v`` pairs joined by commas, ``name``."""
        from ..historian.rules import MetricRule
        service = self._historian_service()
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
                threshold=float_param(params, "threshold", 0.0),
                kind=params.get("kind", "threshold"),
                labels=labels,
                for_seconds=float_param(params, "for", 0.0),
                name=params.get("name", ""))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return {"rule": service.add_rule(rule).to_dict()}

    def _remove_historian_rule(self, params):
        service = self._historian_service()
        if "id" not in params:
            raise BadRequest("parameter 'id' is required")
        return {"removed": service.remove_rule(
            int_param(params, "id", 0))}

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def status(self, params: Optional[Dict[str, str]] = None
               ) -> Dict[str, Any]:
        status = self.manager.status()
        status["gateway_url"] = self.url
        return status

    def _prometheus(self, params):
        return Response(self.federated_metrics().encode(),
                        _PROM_CONTENT_TYPE)

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

    def _job_metrics(self, job_id: str) -> Response:
        """One job's final exposition, ``(worker, job)``-labelled like
        the federated view; 404 if the job never shipped one."""
        entry = self.manager.final_metrics().get(job_id)
        if entry is None:
            raise NotFound(f"no final metrics for job {job_id!r}")
        return Response(inject_labels(
            entry["text"],
            {"worker": str(entry.get("worker_id")),
             "job": job_id}).encode(), _PROM_CONTENT_TYPE)

    # ------------------------------------------------------------------
    # Reverse proxy
    # ------------------------------------------------------------------
    def _proxy(self, method: str, path: str, query: str) -> Response:
        """Forward one request to the worker *path* names.  Unknown
        workers are 404, dead ones 502 — the distinction a retrying
        client needs."""
        worker_id, _, sub_path = path[len("/api/fleet/"):].partition("/")
        if not worker_id or not sub_path:
            raise BadRequest("expected /api/fleet/<worker>/<endpoint>")
        url = self.manager.live_workers().get(worker_id)
        if url is None:
            raise NotFound(f"unknown or exited worker {worker_id!r}")
        target = "/" + sub_path + ("?" + query if query else "")
        try:
            with urlopen(Request(url + target, method=method),
                         timeout=SCRAPE_TIMEOUT) as response:
                content_type = response.headers.get(
                    "Content-Type", "application/octet-stream")
                return Response(response.read(), content_type,
                                response.status)
        except HTTPError as exc:
            # The worker's own verdict (400/404/...) passes through.
            return Response(
                exc.read(),
                exc.headers.get("Content-Type", "application/json"),
                exc.code)
        except (URLError, TimeoutError, ConnectionError, OSError) as exc:
            return Response(
                json.dumps({"error": f"worker {worker_id!r} unreachable: "
                                     f"{exc}"}).encode(),
                "application/json", 502)
