"""Exporting monitored series for post-hoc analysis.

§IV-C: once real-time monitoring narrows the problem, "users can then
perform more targeted post-hoc analysis, essentially starting with a
'smaller haystack'".  This module is that hand-off: it records selected
values through the same HTTP API the dashboard uses and writes them to
CSV or JSON for offline tooling.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..akita.threads import Periodic
from .atomicio import atomic_write_text
from .client import RTMClient

#: Pseudo-component marking a target as a registry metric, not a
#: component value path.
METRIC = "metric"


def metric_target(spec: str) -> Tuple[str, str]:
    """A recorder target naming a registry metric.

    *spec* is a family name, optionally with labels:
    ``"rtm_engine_events_total"`` or
    ``"rtm_cache_hits_total{component=GPU1.L2[0]}"``.  Recorded series
    and live metrics share one namespace: anything visible at
    ``/api/metrics`` can be recorded by name.
    """
    return (METRIC, spec)


def _parse_metric_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    name, sep, rest = spec.partition("{")
    labels: Dict[str, str] = {}
    if sep:
        body = rest.rstrip("}")
        for pair in filter(None, body.split(",")):
            key, _, value = pair.partition("=")
            labels[key.strip()] = value.strip().strip('"')
    return name.strip(), labels


def _resolve_metric(snapshot: Dict, spec: str) -> Optional[float]:
    """Find *spec* in a ``/api/metrics`` snapshot; None if absent.

    Label matching is by subset: every label in the spec must match,
    extra sample labels are ignored.  Histograms resolve to their
    observation count.
    """
    name, wanted = _parse_metric_spec(spec)
    family = snapshot.get(name)
    if family is None:
        return None
    for sample in family.get("samples", []):
        labels = sample.get("labels", {})
        if all(labels.get(k) == v for k, v in wanted.items()):
            if family.get("type") == "histogram":
                return float(sample.get("count", 0))
            return sample.get("value")
    return None


@dataclass
class RecordedSeries:
    """One value's recorded (sim_time, value) samples."""

    label: str
    component: str
    path: str
    points: List[Tuple[float, Optional[float]]] = field(
        default_factory=list)


class SeriesRecorder:
    """Polls a set of monitored values over HTTP and accumulates them.

    Unlike the dashboard's 300-point ring, the recorder keeps
    everything — it exists precisely to hand a complete window to
    post-hoc tools.
    """

    def __init__(self, client: RTMClient,
                 targets: Sequence[Tuple[str, str]],
                 interval: float = 0.05):
        """
        Parameters
        ----------
        client:
            Connected API client.
        targets:
            (component name, value path) pairs to record.  A pair whose
            component is :data:`METRIC` (see :func:`metric_target`)
            records a registry metric by name instead.
        interval:
            Wall-clock polling period in seconds.
        """
        self.client = client
        self.series = [RecordedSeries(f"{component}.{path}", component,
                                      path)
                       for component, path in targets]
        self.loop = Periodic("rtm-recorder", interval, self.sample_once)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Begin polling in a background thread."""
        self.loop.start()

    def stop(self) -> None:
        self.loop.stop()

    def record_for(self, duration: float) -> None:
        """Convenience: record for *duration* wall seconds, blocking."""
        self.start()
        time.sleep(duration)
        self.stop()

    def sample_once(self) -> None:
        """Take one sample of every target (also usable standalone).

        Metric targets share a single ``/api/metrics`` snapshot per
        sampling round, timestamped with the simulation time the
        registry itself publishes (wall time when no simulation
        instrumentation is attached).
        """
        snapshot = None
        if any(s.component == METRIC for s in self.series):
            try:
                snapshot = self.client.metrics_snapshot()
            except Exception:
                snapshot = None
        t_metric = time.monotonic()
        if snapshot:
            family = snapshot.get("rtm_engine_sim_time_seconds")
            if family and family.get("samples"):
                t_metric = family["samples"][0]["value"]
        for series in self.series:
            if series.component == METRIC:
                if snapshot is None:
                    continue
                series.points.append(
                    (t_metric, _resolve_metric(snapshot, series.path)))
                continue
            try:
                data = self.client._get("/api/value",
                                        component=series.component,
                                        path=series.path)
            except Exception:
                continue
            series.points.append((data["time"], data["value"]))

    # -- export ------------------------------------------------------------
    def to_csv(self, path) -> Path:
        """Write a wide CSV: one time column per series pair.

        Series are polled together but may miss samples independently,
        so each series contributes its own (time, value) column pair.

        The document is built in memory and written atomically
        (temp file + rename): a recorder raising mid-dump, or a crash
        racing the write, leaves the previous artifact intact instead
        of a torn one.
        """
        target = Path(path)
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        header = []
        for series in self.series:
            header += [f"{series.label}.time", f"{series.label}.value"]
        writer.writerow(header)
        length = max((len(s.points) for s in self.series), default=0)
        for i in range(length):
            row = []
            for series in self.series:
                if i < len(series.points):
                    t, v = series.points[i]
                    row += [t, v]
                else:
                    row += ["", ""]
            writer.writerow(row)
        atomic_write_text(target, buffer.getvalue())
        return target

    def to_json(self, path) -> Path:
        target = Path(path)
        payload = [{
            "label": s.label,
            "component": s.component,
            "path": s.path,
            "points": [[t, v] for t, v in s.points],
        } for s in self.series]
        atomic_write_text(target, json.dumps(payload, indent=2))
        return target
