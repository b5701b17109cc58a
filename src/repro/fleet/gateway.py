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

A plane that records the campaign mounts rows of its own on the one
gateway it records (:mod:`repro.fleet.cli` wires that); this module
names none of them.

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

from ..core.http import (BadRequest, HTTPServerThread, NotFound, Response,
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
    #: The reverse proxy forwards these (control actions included).
    unrouted_methods = ("GET", "POST", "DELETE")

    def __init__(self, manager, host: str = "127.0.0.1", port: int = 0):
        self.manager = manager
        #: The fleet-level families: the preamble of the federated
        #: exposition, which is why it is not the transport's
        #: ``request_registry`` (see there).
        self.registry = MetricRegistry()
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
