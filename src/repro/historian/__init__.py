"""``repro.historian`` — the fleet's durable system of record.

AkitaRTM (``repro.core``) is a live viewer; this package is its
memory.  A WAL-mode SQLite store (:class:`Historian`) persists, across
campaigns: federated metric snapshots sampled on a cadence, per-job
outcomes with their final Prometheus expositions, watchdog
post-mortems (checkpoint + trace-window pointers included), and alert
firings.  On top of it:

* :class:`RetentionPolicy` + :meth:`Historian.prune` — age/count
  retention per record kind, run by ``repro historian prune``;
* :class:`MetricRule` — declarative threshold/rate/absence rules over
  metric families, run by the one alert engine
  (:class:`repro.core.alerts.AlertManager`) with deduplicated
  ``firing``/``resolved`` transitions;
* :class:`HistorianService` — the background sampler wiring a live
  campaign (gateway + manager) into the store;
* the ``/api/historian/*`` query + compare + SSE routes
  (:data:`repro.historian.service.ROUTES`), which the service mounts
  on the gateway it binds — the fleet itself imports no historian —
  ``RTMClient.historian_*``, and the ``repro historian`` CLI.

Typical use::

    from repro.historian import Historian, HistorianService, MetricRule

    historian = Historian("campaigns.db")
    service = HistorianService(historian, campaign_id="sweep-42",
                               manager=manager)
    service.add_rule(MetricRule("rtm_fleet_jobs",
                                labels={"state": "failed"},
                                op=">=", threshold=1))
    service.bind_gateway(gateway)
    service.start()
    ...  # run the campaign
    service.stop()
    report = historian.compare("sweep-41", "sweep-42")
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MetricRule": ".rules",
    "RULE_KINDS": ".rules",
    "HistorianService": ".service",
    "Historian": ".store",
    "RECORD_KINDS": ".store",
    "RetentionPolicy": ".store",
})
