"""The historian service: a campaign recording itself as it runs.

One background thread on a wall-clock cadence — deliberately *off* the
simulation hot path (the engines run in worker subprocesses; the
sampler only reads the gateway's federated exposition and the
manager's settled views):

* sample the snapshot source (the gateway's federated ``/metrics``, or
  any registry), persist a per-family totals record, and evaluate the
  alert-rule engine against the parsed families;
* harvest newly-terminal jobs from the fleet manager — outcome, final
  exposition, any watchdog post-mortem (failure post-mortems carry
  the ``resume_checkpoint`` and trace-window pointers), and, when the
  workers profiled, the job's continuous-profiling summary as a
  ``profile`` record.

The service brings its own HTTP routes, :data:`ROUTES`, and
:meth:`HistorianService.bind_gateway` mounts them on the one fleet
gateway it records: a gateway no service is bound to has no
``/api/historian/*`` paths.  Retention is ``repro historian prune``'s.

The service also works without a fleet: pass ``source=`` a callable
returning parsed families (see :func:`registry_source`) to record any
monitored run — the overhead benchmark drives it that way.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..akita.threads import Periodic
from ..core.alerts import AlertManager
from ..core.http import (BadRequest, EventStream, float_param, int_param,
                         route_table)
from ..metrics.exposition import expose, family_total, parse_exposition
from .rules import MetricRule
from .store import Historian

__all__ = ["HistorianService", "registry_source"]


def registry_source(registry) -> Callable[[], Dict[str, Any]]:
    """Snapshot source sampling a registry directly (no fleet)."""
    return lambda: parse_exposition(expose(registry))


class HistorianService:
    """Records one campaign into a :class:`Historian` (see module doc).

    Parameters
    ----------
    historian:
        The store; shared across campaigns (that is the point).
    campaign_id:
        Identity of this campaign in the store; generated if omitted.
    manager:
        A :class:`~repro.fleet.manager.FleetManager` (or anything with
        its ``queue.terminal_jobs()``, ``final_metrics()`` and
        ``profiles()`` views) to harvest job outcomes from.  Optional: a
        fleet-less monitored run records snapshots and alerts only.
    source:
        Callable returning parsed families (``parse_exposition``
        output).  Defaults to the gateway's federated exposition once
        :meth:`bind_gateway` is called.
    interval:
        Sampling cadence in wall seconds.
    rules:
        Initial :class:`MetricRule` set.
    """

    def __init__(self, historian: Historian,
                 campaign_id: Optional[str] = None,
                 manager=None,
                 source: Optional[Callable[[], Dict[str, Any]]] = None,
                 interval: float = 1.0,
                 rules: Iterable[MetricRule] = (),
                 meta: Optional[Dict[str, Any]] = None):
        self.historian = historian
        self.manager = manager
        self.source = source
        self.interval = interval
        self.engine = AlertManager()
        for rule in rules:
            self.engine.add(rule)
        self.campaign_id = historian.begin_campaign(campaign_id,
                                                    meta=meta)
        self.snapshots_recorded = 0
        #: Ticks whose snapshot source raised: the beat is skipped, the
        #: harvest still runs.
        self.source_failures = 0
        self.last_source_error: Optional[str] = None
        self._recorded_jobs: Dict[str, str] = {}  # job_id -> state
        self._postmortems_recorded = 0
        self._profiles_recorded = 0
        self.loop = Periodic("rtm-historian", interval, self.tick)
        self._tick_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_gateway(self, gateway) -> None:
        """Use *gateway* as the snapshot source, count rule transitions
        in its registry, and mount :data:`ROUTES` on it, answered by
        this service.  The gateway's table is replaced whole, so other
        gateways keep theirs."""
        if self.source is None:
            self.source = lambda: parse_exposition(
                gateway.federated_metrics())
        self.engine.attach_registry(gateway.registry)
        gateway.routes = {**gateway.routes, **route_table(ROUTES, self)}

    def add_rule(self, rule: MetricRule) -> MetricRule:
        return self.engine.add(rule)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.loop.start()

    def stop(self) -> None:
        """Stop sampling, final-harvest, close out the campaign."""
        self.loop.stop()
        self.tick(final=True)
        self.historian.end_campaign(self.campaign_id)

    # ------------------------------------------------------------------
    # One sampling round
    # ------------------------------------------------------------------
    def tick(self, final: bool = False) -> None:
        """Sample + evaluate + harvest.  Public so tests and the
        benchmark can drive the cadence deterministically."""
        with self._tick_lock:
            families = None
            if self.source is not None:
                try:
                    families = self.source()
                except Exception as exc:  # unreachable: skip a beat
                    self.source_failures += 1
                    self.last_source_error = \
                        f"{type(exc).__name__}: {exc}"
            if families is not None:
                self._record_snapshot(families)
                for transition in self.engine.evaluate_all(families):
                    self.historian.record(
                        self.campaign_id, "alert", transition,
                        name=transition["name"],
                        wall=transition["wall"])
            if self.manager is not None:
                self._harvest_jobs()
            if final:
                self.historian.flush()

    def _record_snapshot(self, families: Dict[str, Any]) -> None:
        totals = {}
        samples = 0
        for name, family in families.items():
            total, _ = family_total(families, name)
            totals[name] = total
            samples += len(family["samples"])
        self.historian.record(
            self.campaign_id, "snapshot",
            {"totals": totals, "families": len(families),
             "samples": samples})
        self.snapshots_recorded += 1

    def _harvest_jobs(self) -> None:
        """Record every job that reached a terminal state since the
        last round — outcome + final exposition as a ``job`` record,
        watchdog verdicts as ``postmortem`` records."""
        # New is told from recorded before anything is serialised: a
        # tick costs what finished since the last one, not the campaign.
        recorded = self._recorded_jobs
        fresh = self.manager.queue.terminal_jobs(recorded)
        if not fresh:
            return
        finals = self.manager.final_metrics()
        profiles = self.manager.profiles()
        for job in fresh:
            job_id = job["spec"]["job_id"]
            state = job["state"]
            recorded[job_id] = state
            final = finals.get(job_id, {})
            result = job.get("result") or {}
            self.historian.record(
                self.campaign_id, "job",
                {"state": state,
                 "attempt": job.get("attempt"),
                 "worker_id": (result.get("worker_id")
                               or job.get("worker_id")
                               or final.get("worker_id")),
                 "retries": len(job.get("failures") or []),
                 # What the manager settled, whole: its event count
                 # and resume record included.
                 "result": result,
                 "metrics_text": final.get("text")},
                name=job_id)
            profile = profiles.get(job_id)
            if profile and profile.get("summary"):
                self.historian.record(
                    self.campaign_id, "profile",
                    {"state": state,
                     "attempt": profile.get("attempt"),
                     "worker_id": profile.get("worker_id"),
                     "summary": profile["summary"]},
                    name=job_id)
                self._profiles_recorded += 1
            self._record_postmortems(job_id, job, result)

    def _record_postmortems(self, job_id: str, job: Dict[str, Any],
                            result: Dict[str, Any]) -> None:
        reports: List[Dict[str, Any]] = []
        for failure in job.get("failures") or []:
            post_mortem = failure.get("post_mortem") or {}
            report = dict(post_mortem)
            report["error"] = failure.get("error")
            report["attempt"] = failure.get("attempt")
            reports.append(report)
        watchdog = result.get("watchdog")
        if watchdog and watchdog.get("verdict"):
            reports.append({"watchdog": watchdog,
                            "attempt": job.get("attempt"),
                            "outcome": job.get("state")})
        for report in reports:
            self.historian.record(self.campaign_id, "postmortem",
                                  report, name=job_id)
            self._postmortems_recorded += 1

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "campaign_id": self.campaign_id,
            "interval": self.interval,
            "loop": self.loop.status(),
            "snapshots_recorded": self.snapshots_recorded,
            "source_failures": self.source_failures,
            "last_source_error": self.last_source_error,
            "jobs_recorded": len(self._recorded_jobs),
            "postmortems_recorded": self._postmortems_recorded,
            "profiles_recorded": self._profiles_recorded,
            "rules": [rule.to_dict() for rule in self.engine.rules],
            "transitions": len(self.engine.transitions),
            "store": self.historian.stats(),
        }

    # ------------------------------------------------------------------
    # Routes: ``fn(gateway, params)``, bound to this service
    # ------------------------------------------------------------------
    def _get_status(self, gateway, params):
        return self.status()

    def _get_campaigns(self, gateway, params):
        return {"campaigns": self.historian.campaigns()}

    def _get_query(self, gateway, params):
        filters = {key: params[key] for key in ("kind", "name")
                   if key in params}
        filters.update({key: float_param(params, key)
                        for key in ("since", "until") if key in params})
        if "campaign" in params:
            filters["campaign_id"] = params["campaign"]
        limit = int_param(params, "limit", 1000)
        if limit < 1:
            # The store reads 0 (and SQLite -1) as "no bound".
            raise BadRequest(f"parameter 'limit' must be at least 1, "
                             f"got {limit}")
        return {"records": self.historian.query(limit=limit, **filters)}

    def _get_compare(self, gateway, params):
        a, b = params.get("a"), params.get("b")
        if not a or not b:
            raise BadRequest("compare needs ?a=<campaign>&b=<campaign>")
        return self.historian.compare(a, b)

    def _get_alerts(self, gateway, params):
        return {"rules": self.engine.to_dict(),
                "transitions": self.engine.transitions}

    def _get_stream(self, gateway, params):
        """SSE of deduplicated alert-rule transitions.

        ``since`` is a sequence-number cursor (default: only
        transitions after the connection opens), ``count`` closes the
        stream after N events — how a test proves "exactly once"."""
        engine = self.engine
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

    def _post_rule(self, gateway, params):
        """Create a rule from query parameters: ``family`` (required),
        ``op``, ``threshold``, ``kind``, ``for`` (hold seconds),
        ``labels`` as ``k=v`` pairs joined by commas, ``name``."""
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
        return {"rule": self.add_rule(rule).to_dict()}

    def _delete_rule(self, gateway, params):
        if "id" not in params:
            raise BadRequest("parameter 'id' is required")
        return {"removed": self.engine.remove(int_param(params, "id", 0))}


#: ``(method, "path?parameters", HistorianService method, purpose)``,
#: mounted on a fleet gateway by :meth:`HistorianService.bind_gateway`.
ROUTES = (
    ("GET", "/api/historian", "_get_status", "recording service status"),
    ("GET", "/api/historian/campaigns", "_get_campaigns",
     "campaigns in the store"),
    ("GET", "/api/historian/query?campaign&kind&name&since&until&limit",
     "_get_query", "filtered records"),
    ("GET", "/api/historian/compare?a&b", "_get_compare",
     "two campaigns diffed"),
    ("GET", "/api/historian/alerts", "_get_alerts", "rules + transitions"),
    ("GET", "/api/historian/stream?interval&count&since", "_get_stream",
     "SSE alert transitions"),
    ("POST", "/api/historian/rules?family&op&threshold&kind&for&labels"
     "&name", "_post_rule", "add an alert rule"),
    ("DELETE", "/api/historian/rules?id", "_delete_rule",
     "remove an alert rule"),
)
