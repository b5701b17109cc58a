"""Wiring the registry into a live simulation.

:class:`SimMetrics` is the counterpart of :class:`repro.trace.Tracer`:
construct it around a :class:`~repro.akita.simulation.Simulation` and a
:class:`~repro.metrics.registry.MetricRegistry`, call :meth:`start` to
attach, :meth:`stop` to detach.  Nothing in the simulation layers
imports this module — instrumentation observes through the existing
hook positions and public counters only.

Two collection styles, chosen per metric for cost:

* **Pull (free on the sim thread).**  Counters the components already
  maintain as plain state — ``engine.event_count``, ``port.num_sent``,
  ``port.fills``, ``tags.hits``, ``mshr.size``, RDMA in-flight — are
  copied into the registry by a collector that runs at *scrape* time,
  and the engine's wall time is read off the pass clock (started at
  ``ENGINE_START``, stopped at ``ENGINE_DRY``/``ENGINE_END``) at the
  same moment.  The simulation pays nothing for these, ever: no
  callback runs per event or per message.  Buffer occupancy is one of
  them: a port counts each delivery by the fill it found
  (``Port.fills``), so the ``rtm_buffer_occupancy_ratio`` histogram is
  exact — every delivery at ``(fill + 1) / capacity`` — and built here.
* **Hooks (bounded, measured).**  The start and end of an engine pass
  only exist at an instant, so they are recorded from engine lifecycle
  callbacks — a handful per run.  The callbacks publish their own cost
  per hook position (``rtm_hook_callback_seconds_total{position=...}``)
  — AkitaRTM's Figure 7 decomposition, live instead of post-hoc; a
  position no callback is subscribed to reports 0.

No component is ever hooked: attached or not, the hot paths run zero
metrics code, and this module attaches nothing at construction.

Also the RTM server's metrics plane: :data:`ROUTES` serve the monitor's
registry and attach its :class:`SimMetrics` at the first scrape.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from operator import attrgetter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..akita.engine import RunState
from ..akita.hooks import HookCtx, HookPos
from ..akita.simulation import Simulation
from ..core.http import (BadRequest, EventStream, NotFound, Response,
                         action_param, float_param, int_param)
from .exposition import CONTENT_TYPE, expose
from .registry import MetricRegistry, snapshot_delta

__all__ = ["SimMetrics", "OCCUPANCY_BUCKETS", "PASS_BUCKETS"]

#: Buffer-occupancy histogram bounds (ratios of capacity).
OCCUPANCY_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)

#: Engine-pass wall-time bounds in seconds.
PASS_BUCKETS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0)

#: The engine positions instrumentation listens at: none is per event.
_ENGINE_LIFECYCLE = (HookPos.ENGINE_START, HookPos.ENGINE_PAUSE,
                     HookPos.ENGINE_CONTINUE, HookPos.ENGINE_DRY,
                     HookPos.ENGINE_END)


class SimMetrics:
    """Attachable instrumentation publishing a simulation's vitals."""

    def __init__(self, simulation: Simulation,
                 registry: Optional[MetricRegistry] = None):
        self.simulation = simulation
        self.registry = registry if registry is not None \
            else MetricRegistry()
        self._started = False
        # The pass clock: (wall seconds of finished passes, start of
        # the pass in flight or None).  One tuple, replaced whole, so
        # the scrape thread never pairs an old total with a new start.
        self._pass_clock: Tuple[float, Optional[float]] = (0.0, None)
        #: One row per component, resolved at the first collect.
        self._rows: List[_Row] = []
        self._define_families()

    # ------------------------------------------------------------------
    # Metric families
    # ------------------------------------------------------------------
    def _define_families(self) -> None:
        reg = self.registry
        # Engine vitals.
        self._m_events = reg.counter(
            "rtm_engine_events_total",
            "Events processed by the engine.")
        self._m_sim_time = reg.gauge(
            "rtm_engine_sim_time_seconds",
            "Current virtual time of the engine.")
        self._m_queue_depth = reg.gauge(
            "rtm_engine_queue_depth",
            "Events pending in the engine queue.")
        self._m_event_wall = reg.counter(
            "rtm_engine_event_wall_seconds_total",
            "Wall-clock seconds the engine spent processing events: "
            "finished passes plus the one in flight.")
        self._m_pass_wall = reg.histogram(
            "rtm_engine_pass_wall_seconds",
            "Wall-clock duration of each engine pass (start to dry/end).",
            buckets=PASS_BUCKETS)
        # Port / connection traffic.
        self._m_sent = reg.counter(
            "rtm_port_messages_sent_total",
            "Messages sent, by owning component.", ("component",))
        self._m_delivered = reg.counter(
            "rtm_port_messages_delivered_total",
            "Messages delivered into port buffers, by component.",
            ("component",))
        self._m_dropped = reg.counter(
            "rtm_conn_messages_dropped_total",
            "In-transit messages dropped, by connection.",
            ("connection",))
        self._m_occupancy = reg.histogram(
            "rtm_buffer_occupancy_ratio",
            "Port buffer fullness each delivery left, by component.",
            ("component",), buckets=OCCUPANCY_BUCKETS)
        # GPU components, duck-typed (see _GPU_FAMILIES).
        self._gpu = [(marker, getattr(reg, kind)(name, help, ("component",)),
                      attrgetter(path))
                     for marker, kind, name, help, path in _GPU_FAMILIES]
        # Self-overhead: Figure 7's decomposition as a live family.
        self._m_cb_count = reg.counter(
            "rtm_hook_callbacks_total",
            "Monitoring callbacks invoked, by hook position.",
            ("position",))
        self._m_cb_seconds = reg.counter(
            "rtm_hook_callback_seconds_total",
            "Wall-clock seconds spent in monitoring callbacks, "
            "by hook position.", ("position",))
        # Pre-resolved overhead children: a callback must not pay for
        # label-tuple hashing.
        self._cb_count: Dict[HookPos, Any] = {
            pos: self._m_cb_count.labels(pos.value) for pos in HookPos}
        self._cb_seconds: Dict[HookPos, Any] = {
            pos: self._m_cb_seconds.labels(pos.value) for pos in HookPos}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Attach the lifecycle hook and the pull-collector.  Idempotent."""
        if self._started:
            return
        sim = self.simulation
        if sim.engine.run_state is RunState.RUNNING:
            # Attached mid-pass (a live scrape): clock it from here.
            self._pass_clock = (self._pass_clock[0], perf_counter())
        sim.engine.accept_hook(self._on_engine_lifecycle,
                               _ENGINE_LIFECYCLE)
        self.registry.add_collector(self._collect)
        self._started = True

    def stop(self) -> None:
        """Detach everything; hot paths return to zero metrics code.

        The collector runs once more on the way out so the registry
        retains the final totals (the CLI's exposition dump relies on
        this).
        """
        if not self._started:
            return
        self._collect()
        self.simulation.engine.remove_hook(self._on_engine_lifecycle)
        self.registry.remove_collector(self._collect)
        # Unobserved from here on: stop the clock of a pass in flight.
        self._pass_clock = (self._engine_wall(), None)
        self._started = False

    def status(self) -> Dict[str, Any]:
        return {
            "started": self._started,
            "families": len(self.registry.names),
        }

    # ------------------------------------------------------------------
    # Hook callback (simulation thread)
    # ------------------------------------------------------------------
    def _on_engine_lifecycle(self, ctx: HookCtx) -> None:
        # Start/pause/continue/dry/end: a handful of calls per run.
        t0 = perf_counter()
        pos = ctx.pos
        done, started = self._pass_clock
        if pos is HookPos.ENGINE_START:
            self._pass_clock = (done, t0)
        elif pos in (HookPos.ENGINE_DRY, HookPos.ENGINE_END) \
                and started is not None:
            self._m_pass_wall.observe(t0 - started)
            self._pass_clock = (done + (t0 - started), None)
        self._cb_count[pos].value += 1.0
        self._cb_seconds[pos].value += perf_counter() - t0

    # ------------------------------------------------------------------
    # Pull collection (scrape thread)
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        sim = self.simulation
        engine = sim.engine
        self._m_events.set(float(engine.event_count))
        self._m_event_wall.set(self._engine_wall())
        self._m_sim_time.set(engine.now)
        self._m_queue_depth.set(float(engine.pending_event_count))
        for conn in sim.connections:
            name = getattr(conn, "name", repr(conn))
            dropped = getattr(conn, "dropped_count", 0)
            if dropped:
                self._m_dropped.labels(name).set(float(dropped))
        rows = self._rows
        if len(rows) != len(sim.components):
            rows = self._rows = [self._row(comp)
                                 for comp in sim.components]
        bins = len(OCCUPANCY_BUCKETS) + 1
        for row in rows:
            sent = delivered = 0
            counts = [0] * bins
            ratios = 0.0
            for port in row.component.ports:
                sent += port.num_sent
                capacity = len(port.fills)
                for fill, n in enumerate(port.fills, 1):
                    if n:
                        ratio = fill / capacity
                        counts[bisect_left(OCCUPANCY_BUCKETS, ratio)] += n
                        ratios += n * ratio
                        delivered += n
            if sent:
                if row.sent is None:
                    row.sent = self._m_sent.labels(row.component.name)
                row.sent.value = float(sent)
            if delivered:
                traffic = row.traffic
                if traffic is None:
                    # Published whole: a collect running beside this
                    # one (a scrape beside the final expose) sees both
                    # children or neither.
                    name = row.component.name
                    traffic = row.traffic = (
                        self._m_delivered.labels(name),
                        self._m_occupancy.labels(name))
                received, occupancy = traffic
                received.value = float(delivered)
                occupancy.counts = counts
                occupancy.sum = ratios
                occupancy.count = delivered
            for child, read in row.cells:
                child.value = float(read(row.component))

    def _engine_wall(self) -> float:
        done, started = self._pass_clock
        return done if started is None \
            else done + (perf_counter() - started)

    def _row(self, comp: Any) -> "_Row":
        """*comp* with its GPU families' children and their readers."""
        return _Row(comp, [(family.labels(comp.name), read)
                           for marker, family, read in self._gpu
                           if getattr(comp, marker, None) is not None])


class _Row:
    """One component as :meth:`SimMetrics._collect` reads it; its
    traffic children appear at its first message: ``sent`` at its first
    send, ``traffic`` (the delivered counter and occupancy histogram,
    one tuple) at its first delivery."""

    __slots__ = ("component", "cells", "sent", "traffic")

    def __init__(self, component: Any,
                 cells: List[Tuple[Any, Callable[[Any], Any]]]):
        self.component, self.cells = component, cells
        self.sent = self.traffic = None


#: The GPU families, duck-typed: a component that has the marker
#: attribute gets a child, set from the value path at every collect.
#: ``(marker, type, name, help, value path)``.
_GPU_FAMILIES = (
    ("tags", "counter", "rtm_cache_hits_total", "Cache tag hits.",
     "tags.hits"),
    ("tags", "counter", "rtm_cache_misses_total", "Cache tag misses.",
     "tags.misses"),
    ("tags", "counter", "rtm_cache_reads_total", "Cache read requests.",
     "num_reads"),
    ("tags", "counter", "rtm_cache_writes_total", "Cache write requests.",
     "num_writes"),
    ("mshr", "gauge", "rtm_cache_mshr_occupancy",
     "Outstanding misses held in each MSHR.", "mshr.size"),
    ("incoming_transactions", "gauge", "rtm_rdma_inflight",
     "Outgoing RDMA transactions in flight.", "transactions"),
    ("incoming_transactions", "counter", "rtm_rdma_forwarded_total",
     "Remote requests forwarded by each RDMA engine.", "num_forwarded"),
    ("num_wgs_completed", "counter", "rtm_cu_ticks_total",
     "Compute-unit ticks.", "tick_count"),
    ("num_wgs_completed", "counter", "rtm_cu_wgs_completed_total",
     "Workgroups completed per compute unit.", "num_wgs_completed"),
    ("num_wgs_completed", "counter", "rtm_cu_mem_reqs_total",
     "Memory requests issued per compute unit.", "num_mem_reqs"),
    ("num_wgs_completed", "counter", "rtm_cu_instructions_total",
     "Instructions (wavefront ops) committed per compute unit.",
     "num_instructions"),
)


# -- the metrics plane -------------------------------------------------
def _instrument(monitor) -> None:
    """Auto-attach simulation instrumentation on first scrape, the way
    a Prometheus user expects /metrics to just work.  Monitors without
    a registered simulation still expose their own (monitor-side)
    families."""
    try:
        monitor.ensure_sim_metrics().start()
    except RuntimeError:
        pass


def _names_param(params: Dict[str, str]) -> Optional[str]:
    """The ``names`` family filter, checked to be a regex."""
    names = params.get("names")
    if names is not None:
        try:
            re.compile(names)
        except re.error as exc:
            raise BadRequest(f"bad names regex: {exc}") from None
    return names


def _prometheus(server, params):
    monitor = server.monitor
    _instrument(monitor)
    return Response(expose(monitor.metrics).encode(), CONTENT_TYPE)


def _snapshot(server, params):
    monitor = server.monitor
    _instrument(monitor)
    current = monitor.metrics.snapshot(_names_param(params))
    want_delta = params.get("delta", "") not in ("", "0", "false")
    if want_delta:
        # Deltas span requests but not server restarts, and the previous
        # snapshot counts only for the monitor it was taken from: the
        # first delta after a rebind() starts from zero.
        taken_from, previous = server.plane_state.get(
            "metrics_delta", (None, {}))
        server.plane_state["metrics_delta"] = (monitor, current)
        current = snapshot_delta(
            previous if taken_from is monitor else {}, current)
    return {"delta": want_delta, "metrics": current}


def _stream(server, params):
    """Server-Sent Events: push snapshots until the client leaves,
    ``count`` is reached, or the server stops."""
    monitor = server.monitor
    interval = max(0.05, float_param(params, "interval", 0.5))
    count = int_param(params, "count", 0)
    names = _names_param(params)
    # attach=0 lets passive consumers (the dashboard header) stream
    # overview/resources without attaching simulation hooks — an open
    # browser tab must not perturb the overhead it displays.
    if params.get("attach", "1") not in ("0", "false"):
        _instrument(monitor)

    def snapshot():
        payload: Dict[str, Any] = {"metrics": monitor.metrics.snapshot(names)}
        if monitor.resources is not None:  # an engine is registered
            payload["overview"] = monitor.overview()
            payload["resources"] = monitor.resources.sample().to_dict()
        return (payload,)

    return EventStream(snapshot, interval, count)


def _control(server, params):
    monitor = server.monitor
    if action_param(params, "start", "stop") == "stop":
        if monitor.sim_metrics is None:
            raise NotFound("no simulation metrics attached")
        monitor.sim_metrics.stop()
        return monitor.sim_metrics.status()
    try:
        sim_metrics = monitor.ensure_sim_metrics()
    except RuntimeError as exc:
        raise BadRequest(str(exc)) from None
    sim_metrics.start()
    return sim_metrics.status()


ROUTES = (
    ("GET", "/metrics", _prometheus, "Prometheus text exposition"),
    ("GET", "/api/metrics?names&delta", _snapshot,
     "registry snapshot (?delta=1)"),
    ("GET", "/api/stream?interval&count&names&attach", _stream,
     "SSE: periodic snapshot pushes"),
    ("POST", "/api/metrics?action=start|stop", _control,
     "attach/detach sim instrumentation"),
)
