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
  ``profile`` record;
* every :data:`PRUNE_INTERVAL` seconds, run the retention sweep as an
  idle-time chore.

The service also works without a fleet: pass ``source=`` a callable
returning parsed families (see :func:`registry_source`) to record any
monitored run — the overhead benchmark drives it that way.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..akita.threads import Periodic
from ..core.alerts import AlertManager
from ..metrics.exposition import parse_exposition
from .rules import MetricRule
from .store import Historian, RetentionPolicy

__all__ = ["HistorianService", "gateway_source", "registry_source"]

#: Wall seconds between retention sweeps.
PRUNE_INTERVAL = 30.0


def gateway_source(gateway) -> Callable[[], Dict[str, Any]]:
    """Snapshot source sampling a gateway's federated exposition."""
    return lambda: parse_exposition(gateway.federated_metrics())


def registry_source(registry) -> Callable[[], Dict[str, Any]]:
    """Snapshot source sampling a registry directly (no fleet)."""
    from ..metrics.exposition import expose
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
        its ``terminal_jobs()``/``final_metrics()`` views) to harvest job
        outcomes from.  Optional: a fleet-less monitored run records
        snapshots and alerts only.
    source:
        Callable returning parsed families (``parse_exposition``
        output).  Defaults to the gateway's federated exposition once
        :meth:`bind_gateway` is called.
    interval:
        Sampling cadence in wall seconds.
    rules:
        Initial :class:`MetricRule` set.
    retention:
        :class:`RetentionPolicy` list for the idle-time sweep.
    """

    def __init__(self, historian: Historian,
                 campaign_id: Optional[str] = None,
                 manager=None,
                 source: Optional[Callable[[], Dict[str, Any]]] = None,
                 interval: float = 1.0,
                 rules: Iterable[MetricRule] = (),
                 retention: Iterable[RetentionPolicy] = (),
                 meta: Optional[Dict[str, Any]] = None):
        self.historian = historian
        self.manager = manager
        self.source = source
        self.interval = interval
        self.engine = AlertManager()
        for rule in rules:
            self.engine.add(rule)
        self.retention = list(retention)
        self._meta = dict(meta or {})
        self.campaign_id = historian.begin_campaign(campaign_id,
                                                    meta=self._meta)
        self.snapshots_recorded = 0
        self._recorded_jobs: Dict[str, str] = {}  # job_id -> state
        self._postmortems_recorded = 0
        self._profiles_recorded = 0
        self._last_prune = time.monotonic()
        self.loop = Periodic("rtm-historian", interval, self.tick)
        self._tick_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_gateway(self, gateway) -> None:
        """Use *gateway* as the snapshot source, count rule transitions
        in its registry, and register this service on it so the
        ``/api/historian/*`` routes come alive."""
        if self.source is None:
            self.source = gateway_source(gateway)
        self.engine.attach_registry(gateway.registry)
        gateway.historian = self

    def add_rule(self, rule: MetricRule) -> MetricRule:
        return self.engine.add(rule)

    def remove_rule(self, rule_id: int) -> bool:
        return self.engine.remove(rule_id)

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
        """Sample + evaluate + harvest (+ sweep).  Public so tests and
        the benchmark can drive the cadence deterministically."""
        with self._tick_lock:
            families = None
            if self.source is not None:
                try:
                    families = self.source()
                except Exception:
                    families = None  # unreachable source: skip a beat
            if families is not None:
                self._record_snapshot(families)
                for transition in self.engine.evaluate_all(families):
                    self.historian.record(
                        self.campaign_id, "alert", transition,
                        name=transition["name"],
                        wall=transition["wall"])
            if self.manager is not None:
                self._harvest_jobs()
            now = time.monotonic()
            if self.retention and (final or
                                   now - self._last_prune
                                   >= PRUNE_INTERVAL):
                self._last_prune = now
                self.historian.prune(self.retention)
            if final:
                self.historian.flush()

    def _record_snapshot(self, families: Dict[str, Any]) -> None:
        from ..metrics.exposition import family_total
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
        fresh = self.manager.terminal_jobs(recorded)
        if not fresh:
            return
        finals = self.manager.final_metrics()
        profiles = (self.manager.profiles()
                    if hasattr(self.manager, "profiles") else {})
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
    # Views (the gateway's /api/historian handlers call these)
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "campaign_id": self.campaign_id,
            "interval": self.interval,
            "loop": self.loop.status(),
            "snapshots_recorded": self.snapshots_recorded,
            "jobs_recorded": len(self._recorded_jobs),
            "postmortems_recorded": self._postmortems_recorded,
            "profiles_recorded": self._profiles_recorded,
            "rules": [rule.to_dict() for rule in self.engine.rules],
            "transitions": len(self.engine.transitions),
            "retention": [
                {"kind": p.kind, "max_age": p.max_age,
                 "max_count": p.max_count} for p in self.retention],
            "store": self.historian.stats(),
        }
