"""repro.metrics — the unified metrics layer.

One registry holds every number the monitor publishes: engine
throughput, port traffic, buffer occupancy, cache behaviour, RDMA
in-flight, the dashboard's watched values, process resources — and the
monitor's *own* overhead, decomposed by hook position (the paper's
Figure 7 as a live metric family rather than a benchmark artifact).

Three front doors, routes of :mod:`.instrument` that
:class:`repro.core.RTMServer` serves:

* ``GET /metrics``      — Prometheus text exposition
* ``GET /api/metrics``  — JSON snapshot (``?delta=1`` for rates)
* ``GET /api/stream``   — Server-Sent Events pushing snapshots
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CONTENT_TYPE": ".exposition",
    "expose": ".exposition",
    "family_total": ".exposition",
    "format_labels": ".exposition",
    "parse_exposition": ".exposition",
    "federate": ".federation",
    "federate_sources": ".federation",
    "inject_label": ".federation",
    "inject_labels": ".federation",
    "scrape": ".federation",
    "OCCUPANCY_BUCKETS": ".instrument",
    "PASS_BUCKETS": ".instrument",
    "SimMetrics": ".instrument",
    "Counter": ".registry",
    "Gauge": ".registry",
    "Histogram": ".registry",
    "Metric": ".registry",
    "MetricRegistry": ".registry",
    "rate": ".registry",
    "Series": ".registry",
    "snapshot_delta": ".registry",
})
