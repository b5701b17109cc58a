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
  ``tags.hits``, ``mshr.size``, RDMA in-flight — are copied into the
  registry by a collector that runs at *scrape* time, and the engine's
  wall time is read off the pass clock (started at ``ENGINE_START``,
  stopped at ``ENGINE_DRY``/``ENGINE_END``) at the same moment.  The
  simulation pays nothing for these, ever: no callback runs per event.
* **Hooks (bounded, measured).**  Quantities that only exist at an
  instant — buffer occupancy at delivery, the start and end of an
  engine pass — are recorded from hook callbacks, subscribed to exactly
  those positions.  The callbacks publish their own cost per hook
  position (``rtm_hook_callback_seconds_total{position=...}``) —
  exactly the decomposition of AkitaRTM's Figure 7, live instead of
  post-hoc; a position no callback is subscribed to reports 0.
  Occupancy is *sampled* (one delivery in 4, its cost scaled) so
  self-accounting does not itself dominate the budget it reports: the
  delivery callback takes ``PORT_DELIVER``'s positional
  ``(port, now, msg)``, and three calls in four are one counter step —
  the count the collector publishes as
  ``rtm_hook_callbacks_total{position="port_deliver"}``.

When :meth:`start` has not been called the hot paths run zero metrics
code: every firing site tests its own position's (empty) hook chain
and this module attaches nothing at construction.

Also the RTM server's metrics plane: :data:`ROUTES` serve the monitor's
registry and attach its :class:`SimMetrics` at the first scrape.
"""

from __future__ import annotations

import re
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

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
        self._n_deliver = 0  # deliveries seen; every 4th is sampled
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
            "Port buffer fullness, sampled at every 4th delivery.",
            ("component",), buckets=OCCUPANCY_BUCKETS)
        # GPU components (duck-typed: any component with the attribute).
        self._m_cache_hits = reg.counter(
            "rtm_cache_hits_total", "Cache tag hits.", ("component",))
        self._m_cache_misses = reg.counter(
            "rtm_cache_misses_total", "Cache tag misses.",
            ("component",))
        self._m_cache_reads = reg.counter(
            "rtm_cache_reads_total", "Cache read requests.",
            ("component",))
        self._m_cache_writes = reg.counter(
            "rtm_cache_writes_total", "Cache write requests.",
            ("component",))
        self._m_mshr = reg.gauge(
            "rtm_cache_mshr_occupancy",
            "Outstanding misses held in each MSHR.", ("component",))
        self._m_rdma_inflight = reg.gauge(
            "rtm_rdma_inflight",
            "Outgoing RDMA transactions in flight.", ("component",))
        self._m_rdma_forwarded = reg.counter(
            "rtm_rdma_forwarded_total",
            "Remote requests forwarded by each RDMA engine.",
            ("component",))
        self._m_cu_ticks = reg.counter(
            "rtm_cu_ticks_total", "Compute-unit ticks.", ("component",))
        self._m_cu_wgs = reg.counter(
            "rtm_cu_wgs_completed_total",
            "Workgroups completed per compute unit.", ("component",))
        self._m_cu_mem = reg.counter(
            "rtm_cu_mem_reqs_total",
            "Memory requests issued per compute unit.", ("component",))
        self._m_cu_instr = reg.counter(
            "rtm_cu_instructions_total",
            "Instructions (wavefront ops) committed per compute unit.",
            ("component",))
        # Self-overhead: Figure 7's decomposition as a live family.
        self._m_cb_count = reg.counter(
            "rtm_hook_callbacks_total",
            "Monitoring callbacks invoked, by hook position.",
            ("position",))
        self._m_cb_seconds = reg.counter(
            "rtm_hook_callback_seconds_total",
            "Wall-clock seconds spent in monitoring callbacks, "
            "by hook position.", ("position",))
        # Pre-resolved overhead children: the hot path must not pay for
        # label-tuple hashing on every event.
        self._cb_count: Dict[HookPos, Any] = {
            pos: self._m_cb_count.labels(pos.value) for pos in HookPos}
        self._cb_seconds: Dict[HookPos, Any] = {
            pos: self._m_cb_seconds.labels(pos.value) for pos in HookPos}
        self._occ_children: Dict[Any, Any] = {}  # by port
        # The per-delivery position additionally skips the dict: its
        # seconds child is bound straight to an attribute, and its
        # count is ``_n_deliver``, published by _collect.
        self._sec_deliver = self._cb_seconds[HookPos.PORT_DELIVER]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Attach hooks and the pull-collector.  Idempotent."""
        if self._started:
            return
        sim = self.simulation
        if sim.engine.run_state is RunState.RUNNING:
            # Attached mid-pass (a live scrape): clock it from here.
            self._pass_clock = (self._pass_clock[0], perf_counter())
        sim.engine.accept_hook(self._on_engine_lifecycle,
                               _ENGINE_LIFECYCLE)
        for comp in sim.components:
            comp.accept_hook(self._on_deliver, (HookPos.PORT_DELIVER,))
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
        sim = self.simulation
        sim.engine.remove_hook(self._on_engine_lifecycle)
        for comp in sim.components:
            comp.remove_hook(self._on_deliver)
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
    # Hook callbacks (simulation thread — keep them lean)
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

    def _on_deliver(self, port: Any, now: float, msg: Any) -> None:
        # Occupancy is a distribution, so it tolerates sampling: every
        # 4th delivery is observed (and self-timed, scaled to the
        # family's usual per-call meaning); the other three leave after
        # this one counter step, which _collect publishes.
        n = self._n_deliver = self._n_deliver + 1
        if n & 3:
            return
        t0 = perf_counter()
        child = self._occ_children.get(port)
        if child is None:
            comp = port.component
            name = comp.name if comp is not None else port.name
            child = self._occ_children[port] = \
                self._m_occupancy.labels(name)
        child.observe(port.buf.fullness)
        self._sec_deliver.value += (perf_counter() - t0) * 4.0

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
        self._cb_count[HookPos.PORT_DELIVER].set(float(self._n_deliver))
        for conn in sim.connections:
            name = getattr(conn, "name", repr(conn))
            dropped = getattr(conn, "dropped_count", 0)
            if dropped:
                self._m_dropped.labels(name).set(float(dropped))
        for comp in sim.components:
            name = comp.name
            sent = delivered = 0
            for port in comp.ports:
                sent += port.num_sent
                delivered += port.num_delivered
            if sent:
                self._m_sent.labels(name).set(float(sent))
            if delivered:
                self._m_delivered.labels(name).set(float(delivered))
            self._collect_gpu(name, comp)

    def _engine_wall(self) -> float:
        done, started = self._pass_clock
        return done if started is None \
            else done + (perf_counter() - started)

    def _collect_gpu(self, name: str, comp: Any) -> None:
        tags = getattr(comp, "tags", None)
        if tags is not None:
            self._m_cache_hits.labels(name).set(float(tags.hits))
            self._m_cache_misses.labels(name).set(float(tags.misses))
            self._m_cache_reads.labels(name).set(
                float(getattr(comp, "num_reads", 0)))
            self._m_cache_writes.labels(name).set(
                float(getattr(comp, "num_writes", 0)))
        mshr = getattr(comp, "mshr", None)
        if mshr is not None:
            self._m_mshr.labels(name).set(float(mshr.size))
        if hasattr(comp, "incoming_transactions"):  # RDMA engine
            self._m_rdma_inflight.labels(name).set(
                float(comp.transactions))
            self._m_rdma_forwarded.labels(name).set(
                float(getattr(comp, "num_forwarded", 0)))
        if hasattr(comp, "num_wgs_completed"):  # compute unit
            self._m_cu_ticks.labels(name).set(
                float(getattr(comp, "tick_count", 0)))
            self._m_cu_wgs.labels(name).set(
                float(comp.num_wgs_completed))
            self._m_cu_mem.labels(name).set(
                float(getattr(comp, "num_mem_reqs", 0)))
            self._m_cu_instr.labels(name).set(
                float(getattr(comp, "num_instructions", 0)))


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
