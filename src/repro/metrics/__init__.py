"""repro.metrics — the unified metrics layer.

One registry holds every number the monitor publishes: engine
throughput, port traffic, buffer occupancy, cache behaviour, RDMA
in-flight, the dashboard's watched values, process resources — and the
monitor's *own* overhead, decomposed by hook position (the paper's
Figure 7 as a live metric family rather than a benchmark artifact).

Three front doors, all served by :class:`repro.core.RTMServer`:

* ``GET /metrics``      — Prometheus text exposition
* ``GET /api/metrics``  — JSON snapshot (``?delta=1`` for rates)
* ``GET /api/stream``   — Server-Sent Events pushing snapshots
"""

from .exposition import (
    CONTENT_TYPE,
    expose,
    family_total,
    format_labels,
    parse_exposition,
)
from .federation import (
    federate,
    federate_sources,
    inject_label,
    inject_labels,
    scrape,
)
from .instrument import OCCUPANCY_BUCKETS, PASS_BUCKETS, SimMetrics
from .registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricRegistry,
    Series,
    rate,
    snapshot_delta,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "OCCUPANCY_BUCKETS",
    "PASS_BUCKETS",
    "Series",
    "SimMetrics",
    "expose",
    "family_total",
    "federate",
    "federate_sources",
    "format_labels",
    "parse_exposition",
    "inject_label",
    "inject_labels",
    "rate",
    "scrape",
    "snapshot_delta",
]
