"""Simulation value monitoring over time (paper §IV-C, Figure 5).

A :class:`ValueWatch` tracks one value of the hardware under simulation
— a number, or a container whose size is plotted.  The paper keeps only
the most recent 300 data points ("considering that the client's memory
is usually limited"); we honour the same bound.

Up to :data:`MAX_WATCHES` watches are active at once (the paper's view
"plots up to five individual values over time").

Storage lives in the metrics layer: each watch is a labelled child of
the ``rtm_watch_value`` gauge family, so watched values appear in the
Prometheus exposition alongside every other metric, and the history
behind the dashboard's time charts is the gauge child's bounded
:class:`~repro.metrics.Series` — one namespace, one ring, no private
sample lists.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..metrics import Gauge, MetricRegistry, Series
from .inspector import numeric_value, resolve_path

#: Most recent data points kept per watch (paper: 300).
HISTORY = 300
#: Concurrent watches (paper: up to five values plotted).
MAX_WATCHES = 5


class ValueWatch:
    """One monitored value and its recent history."""

    def __init__(self, component: Any, path: str,
                 label: Optional[str] = None,
                 registry: Optional[MetricRegistry] = None):
        #: Numbered by the :class:`ValueMonitor` that keeps the watch.
        self.id = 0
        self.component = component
        self.path = path
        comp_name = getattr(component, "name", type(component).__name__)
        self.label = label or f"{comp_name}.{path}"
        self._gauge: Optional[Gauge] = None
        if registry is not None:
            self._gauge = registry.gauge(
                "rtm_watch_value",
                "Current value of each dashboard watch.",
                ("watch",), history=HISTORY)
            self._child = self._gauge.labels(self.label)
            self._series = self._child.series
            self._series.clear()  # a re-used label starts fresh
        else:
            self._child = None
            self._series = Series(HISTORY)

    def sample(self, now: float) -> Optional[float]:
        """Record the current value at simulation time *now*."""
        try:
            raw = resolve_path(self.component, self.path)
        except (AttributeError, KeyError, IndexError, TypeError):
            return None
        value = numeric_value(raw)
        if value is None:
            return None
        if self._child is not None:
            self._child.set(value, now)
        else:
            self._series.append(now, value)
        return value

    @property
    def points(self) -> List[Tuple[float, float]]:
        """Snapshot of the recent (sim time, value) history."""
        return self._series.points()

    def release(self) -> None:
        """Drop this watch's child from the registry (on unwatch)."""
        if self._gauge is not None:
            self._gauge.remove(self.label)
            self._gauge = None
            self._child = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "label": self.label,
            "path": self.path,
            "points": [[t, v] for t, v in self.points],
        }


class ValueMonitor:
    """Manages the active watches; thread-safe."""

    def __init__(self, registry: Optional[MetricRegistry] = None):
        self.registry = registry
        self._watches: Dict[int, ValueWatch] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def watch(self, component: Any, path: str,
              label: Optional[str] = None) -> ValueWatch:
        """Start watching ``component.path``.

        When the watch limit is reached the oldest watch is dropped,
        mirroring the dashboard's five-plot carousel.
        """
        with self._lock:
            while len(self._watches) >= MAX_WATCHES:
                oldest = min(self._watches)
                self._watches.pop(oldest).release()
            w = ValueWatch(component, path, label,
                           registry=self.registry)
            w.id = next(self._ids)
            self._watches[w.id] = w
            return w

    def unwatch(self, watch_id: int) -> bool:
        with self._lock:
            watch = self._watches.pop(watch_id, None)
            if watch is None:
                return False
            watch.release()
            return True

    def get(self, watch_id: int) -> Optional[ValueWatch]:
        return self._watches.get(watch_id)

    @property
    def watches(self) -> List[ValueWatch]:
        with self._lock:
            return list(self._watches.values())

    def sample_all(self, now: float) -> None:
        """Take one sample of every active watch (called periodically by
        the monitor's sampler thread or by a polling client)."""
        for w in self.watches:
            w.sample(now)

    def to_dict(self) -> List[Dict[str, Any]]:
        return [w.to_dict() for w in self.watches]
