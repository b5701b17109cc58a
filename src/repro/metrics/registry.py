"""The metric registry: typed, label-aware counters/gauges/histograms.

Design goals (MGSim's counter infrastructure is the model — cheap,
always-on, uniformly named, scrapeable):

* **Lock-free on the simulation thread.**  The writer side (``inc`` /
  ``set`` / ``observe``) takes no locks: children are plain objects
  with ``__slots__`` whose float fields are updated under the GIL.
  Readers (HTTP scrape threads) snapshot values; a scrape racing an
  increment sees either the old or the new value — both are valid
  observations of a monotonic series.
* **Zero cost when unused.**  A registry holds names and children; it
  never touches the engine or any component.  Wiring a simulation in
  (see :mod:`repro.metrics.instrument`) is the explicit, reversible
  step that attaches hooks.
* **One namespace.**  Every number the monitor publishes — engine
  throughput, buffer occupancy, cache hits, the monitor's own overhead
  — lives in one registry, with one naming convention
  (``rtm_<subsystem>_<quantity>[_total]``), scrapeable as Prometheus
  text or JSON.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricRegistry",
    "Series",
    "rate",
    "snapshot_delta",
]

#: Default histogram buckets: occupancy-style ratios in [0, 1] plus +Inf.
DEFAULT_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def rate(delta: float, seconds: float) -> float:
    """The one throughput formula: *delta* per *seconds*, 0 when the
    window is empty or non-positive.

    Every events/s, KIPS and progress/s number in the codebase funnels
    through here so the dashboard, the HTTP API and the CLI can never
    disagree on what a rate means.  ``seconds <= 0`` yields ``0.0``
    (never a division error, never ``inf``): a zero-width window has
    observed nothing.
    """
    if seconds <= 0.0:
        return 0.0
    return delta / seconds


class Series:
    """A bounded (time, value) ring — the storage behind time charts.

    This is the registry-native replacement for the private sample
    deques :class:`~repro.core.timeseries.ValueWatch` used to keep:
    a gauge child created with ``history=N`` records its last N
    ``(t, value)`` pairs here, so recorded series and live metrics
    share one namespace.
    """

    __slots__ = ("_points",)

    def __init__(self, maxlen: int):
        self._points: Deque[Tuple[float, float]] = deque(maxlen=maxlen)

    def append(self, t: float, value: float) -> None:
        self._points.append((t, value))

    def points(self) -> List[Tuple[float, float]]:
        """Snapshot of the ring, oldest first (safe across threads)."""
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def clear(self) -> None:
        self._points.clear()


class _CounterChild:
    """One labelled counter cell.  Monotonically increasing."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, total: float) -> None:
        """Overwrite the running total.

        For *pull-collected* counters whose true total lives in the
        simulation (``engine.event_count``, ``port.num_sent``): the
        collector copies the authoritative value in at scrape time, so
        the hot path pays nothing.
        """
        self.value = total


class _GaugeChild:
    """One labelled gauge cell, optionally with a bounded history."""

    __slots__ = ("value", "series")

    def __init__(self, history: int = 0):
        self.value = 0.0
        self.series: Optional[Series] = Series(history) if history else None

    def set(self, value: float, t: Optional[float] = None) -> None:
        self.value = value
        if self.series is not None and t is not None:
            self.series.append(t, value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """One labelled histogram cell with fixed, precompiled buckets."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = 0
        bounds = self.bounds
        n = len(bounds)
        while i < n and value > bounds[i]:
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1


_CHILD_FACTORY = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
    "histogram": _HistogramChild,
}


class Metric:
    """One metric family: a name, a type, and labelled children."""

    __slots__ = ("name", "help", "type", "labelnames", "_children",
                 "_default", "_kwargs", "_label_bodies")

    def __init__(self, name: str, help: str, type: str,
                 labelnames: Sequence[str] = (), **kwargs):
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.help = help
        self.type = type
        self.labelnames = tuple(labelnames)
        self._children: Dict[Tuple[str, ...], Any] = {}
        #: label values -> the child's rendered ``{a="x",b="y"}``: filled
        #: by :func:`~repro.metrics.exposition.expose` at a child's
        #: first scrape, dropped with the child by :meth:`remove`.
        self._label_bodies: Dict[Tuple[str, ...], str] = {}
        self._kwargs = kwargs
        self._default = None if self.labelnames else self._make_child()

    def _make_child(self):
        factory = _CHILD_FACTORY[self.type]
        if self.type == "gauge":
            return factory(self._kwargs.get("history", 0))
        if self.type == "histogram":
            return factory(tuple(self._kwargs.get("buckets",
                                                  DEFAULT_BUCKETS)))
        return factory()

    # -- children ---------------------------------------------------------
    def labels(self, *values: str):
        """The child for one label-value combination (created on first
        use).  Values are positional, matching ``labelnames`` order."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label values "
                f"({', '.join(self.labelnames)}), got {len(values)}")
        if self._default is not None:  # unlabelled: one shared child
            return self._default
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            child = self._children.setdefault(key, self._make_child())
        return child

    def remove(self, *values: str) -> bool:
        """Drop one child (e.g. a deleted watch)."""
        key = tuple(str(v) for v in values)
        self._label_bodies.pop(key, None)
        return self._children.pop(key, None) is not None

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """(label values, child) pairs; the default child has ``()``."""
        if self._default is not None:
            return [((), self._default)]
        return sorted(self._children.items())

    # -- unlabelled sugar --------------------------------------------------
    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} has labels {self.labelnames}; "
                f"use .labels(...)")
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._require_default().dec(amount)

    def set(self, value: float, t: Optional[float] = None) -> None:
        child = self._require_default()
        if self.type == "gauge":
            child.set(value, t)
        else:
            child.set(value)

    def observe(self, value: float) -> None:
        self._require_default().observe(value)

    @property
    def value(self) -> float:
        return self._require_default().value


class Counter(Metric):
    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        super().__init__(name, help, "counter", labelnames)


class Gauge(Metric):
    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (), history: int = 0):
        super().__init__(name, help, "gauge", labelnames,
                         history=history)


class Histogram(Metric):
    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"{name}: histogram needs >= 1 bucket bound")
        super().__init__(name, help, "histogram", labelnames,
                         buckets=bounds)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name) \
            or name[0].isdigit():
        raise ValueError(f"invalid metric/label name {name!r}")


class MetricRegistry:
    """Holds metric families and pull-collectors; renders snapshots.

    Registration is idempotent by (name, type, labelnames): asking for
    an existing family returns it, so independent subsystems can share
    families without coordination.  Registration takes a lock (rare);
    the write path (child ``inc``/``set``/``observe``) never does.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: Sequence[str], **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (existing.type != cls.__name__.lower()
                        or existing.labelnames != tuple(labelnames)):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type}{existing.labelnames}")
                return existing
            metric = cls(name, help, labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = (),
              history: int = 0) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames,
                                   history=history)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    @property
    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- pull collection ---------------------------------------------------
    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a callback run before every snapshot/exposition.

        Collectors copy authoritative simulation state (event counts,
        buffer sizes, MSHR occupancy) into metric children at *scrape*
        time, so always-on state metrics cost the simulation thread
        nothing at all.
        """
        self._collectors.append(fn)

    def remove_collector(self, fn: Callable[[], None]) -> None:
        try:
            self._collectors.remove(fn)
        except ValueError:
            pass

    def collect(self) -> None:
        for fn in list(self._collectors):
            fn()

    # -- reading -----------------------------------------------------------
    def metrics(self) -> List[Metric]:
        self.collect()
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]

    def snapshot(self, names: Optional[str] = None) -> Dict[str, Any]:
        """A JSON-able snapshot of every family (``/api/metrics``).

        Parameters
        ----------
        names:
            Optional regex; only matching family names are included.
        """
        import re
        pattern = re.compile(names) if names else None
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            if pattern is not None and not pattern.search(metric.name):
                continue
            samples = []
            for label_values, child in metric.samples():
                labels = dict(zip(metric.labelnames, label_values))
                if metric.type == "histogram":
                    samples.append({
                        "labels": labels,
                        "buckets": dict(zip(
                            [str(b) for b in child.bounds] + ["+Inf"],
                            list(child.counts))),
                        "sum": child.sum,
                        "count": child.count,
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            out[metric.name] = {
                "type": metric.type,
                "help": metric.help,
                "samples": samples,
            }
        return out


def _sample_key(sample: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(sample.get("labels", {}).items()))


def snapshot_delta(previous: Dict[str, Any],
                   current: Dict[str, Any]) -> Dict[str, Any]:
    """Per-family difference between two :meth:`MetricRegistry.snapshot`
    payloads.

    Counters and histogram counts/sums become deltas (clamped at zero
    so a registry restart never yields negative rates); gauges pass
    through unchanged — a gauge *is* its current value.
    """
    out: Dict[str, Any] = {}
    for name, family in current.items():
        prev_family = previous.get(name)
        if family["type"] == "gauge" or prev_family is None:
            out[name] = family
            continue
        prev_by_key = {_sample_key(s): s
                       for s in prev_family.get("samples", [])}
        samples = []
        for sample in family["samples"]:
            prev = prev_by_key.get(_sample_key(sample))
            if family["type"] == "counter":
                base = prev["value"] if prev else 0.0
                samples.append({
                    "labels": sample.get("labels", {}),
                    "value": max(0.0, sample["value"] - base),
                })
            else:  # histogram
                prev_buckets = prev["buckets"] if prev else {}
                samples.append({
                    "labels": sample.get("labels", {}),
                    "buckets": {
                        le: max(0, n - prev_buckets.get(le, 0))
                        for le, n in sample["buckets"].items()},
                    "sum": max(0.0, sample["sum"]
                               - (prev["sum"] if prev else 0.0)),
                    "count": max(0, sample["count"]
                                 - (prev["count"] if prev else 0)),
                })
        out[name] = {"type": family["type"], "help": family["help"],
                     "samples": samples}
    return out
