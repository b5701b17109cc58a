"""The AkitaRTM monitor — the plugin a simulation registers itself with.

This is the Python equivalent of the paper's Go API.  §IV-B: "The Go API
is small and lightweight … Implementing the Go API requires only 12
functions."  The twelve, as reproduced here:

==============================  =========================================
Paper (Go)                      This module
==============================  =========================================
RegisterEngine                  :meth:`Monitor.register_engine`
RegisterComponent               :meth:`Monitor.register_component`
CreateProgressBar               :meth:`Monitor.create_progress_bar`
UpdateProgressBar               :meth:`Monitor.update_progress_bar`
DestroyProgressBar              :meth:`Monitor.destroy_progress_bar`
StartServer                     :meth:`Monitor.start_server`
StopServer                      :meth:`Monitor.stop_server`
Pause                           :meth:`Monitor.pause`
Continue                        :meth:`Monitor.continue_`
CurrentTime                     :meth:`Monitor.now`
Tick (component wake)           :meth:`Monitor.tick_component`
KickStart                       :meth:`Monitor.kick_start`
==============================  =========================================

plus convenience sugar (``register_simulation``, ``attach_driver``,
``watch_value``) that simulators are free to ignore.

The monitor performs work **on demand**: nothing runs when no request
arrives (the first of the three §VII design choices credited for the
negligible overhead).  The only persistent activity is an optional
low-frequency sampler thread that feeds the time-series watches and the
hang detector.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.simulation import Simulation
from ..akita.threads import Periodic
from ..metrics import MetricRegistry
from .alerts import AlertManager, AlertRule
from .bottleneck import BufferAnalyzer
from .hangdetect import HangDetector, HangStatus, NoSimulation
from .inspector import serialize_component, watchable_paths
from .progress import ProgressBar
from .resources import ResourceMonitor
from .timeseries import ValueMonitor, ValueWatch


def _plane(prefix: str):
    """The module the server's manifest names for *prefix*, its routes
    registered: a plane is served from its attach.  (A relative import
    would run two Python frames at every attach; this one runs none.)"""
    from repro.core.server import planes
    return planes[prefix]


class Monitor:
    """Real-time monitor for one simulation."""

    def __init__(self, simulation: Optional[Simulation] = None):
        self._engine: Optional[Engine] = None
        self._simulation: Optional[Simulation] = None
        self._components: Dict[str, Any] = {}
        self._bars: Dict[int, ProgressBar] = {}
        #: The monitor numbers its bars.  A driver's bar, kept by the
        #: ``id()`` of the kernel or memcopy it shows (the driver keeps
        #: them all), keeps its number across reads.
        self._bar_numbers = itertools.count(1)
        self._driver_bars: Dict[int, ProgressBar] = {}
        self._bars_lock = threading.Lock()
        self.analyzer = BufferAnalyzer()
        # The unified registry: every number the monitor publishes —
        # watches, resources, hang state, HTTP latency, simulation
        # vitals — lives here, scrapeable at /metrics.  Always present;
        # it costs nothing until something records into it.
        self.metrics = MetricRegistry()
        self.values = ValueMonitor(registry=self.metrics)
        self.alerts = AlertManager(registry=self.metrics)
        self.profiler = None  # set by start_continuous_profiling
        self.resources: Optional[ResourceMonitor] = None
        self.hang: Optional[HangDetector] = None
        self.injector = None  # set by ensure_injector
        self.watchdog = None  # set by enable_watchdog
        self.checkpointer = None  # set by attach_checkpointer
        self.tracer = None  # set by ensure_tracer
        self.sim_metrics = None  # set by ensure_sim_metrics
        self._server = None  # set by start_server
        self._driver = None
        #: Wall seconds between sampler turns, read every turn.
        self.sample_interval = 0.1
        self.sampler = Periodic("rtm-sampler",
                                lambda: self.sample_interval, self._sample)
        if simulation is not None:
            self.register_simulation(simulation)

    @classmethod
    def for_platform(cls, platform) -> "Monitor":
        """The monitor a run hosts: *platform*'s simulation registered,
        its driver's progress bars attached and the sampler running.
        Serving stays explicit (:meth:`start_server`)."""
        monitor = cls(platform.simulation)
        monitor.attach_driver(platform.driver)
        monitor.start_sampler()
        return monitor

    # ------------------------------------------------------------------
    # Registration (Go API #1, #2 + sugar)
    # ------------------------------------------------------------------
    def register_engine(self, engine: Engine) -> None:
        """Link the engine that manages simulation progress."""
        self._engine = engine
        self.resources = ResourceMonitor(engine, registry=self.metrics)

    def register_component(self, component: Any) -> None:
        """Start monitoring *component*: its fields become inspectable
        and its buffers join the bottleneck analyzer — no modification
        of the component required (reflection does the discovery, when
        the analyzer is first read)."""
        name = getattr(component, "name", None)
        if not name:
            raise ValueError("component needs a 'name' to be monitored")
        self._components[name] = component
        self.analyzer.register_component(component)

    def register_simulation(self, simulation: Simulation) -> None:
        """Register the engine and every component of *simulation*."""
        self._simulation = simulation
        self.register_engine(simulation.engine)
        for component in simulation.components:
            self.register_component(component)
        self.hang = HangDetector(simulation, self.analyzer,
                                 registry=self.metrics)
        self.alerts = AlertManager(abort=simulation.abort,
                                   registry=self.metrics)

    def attach_driver(self, driver) -> None:
        """Auto-create the default progress bars: kernel block progress
        and memcopy byte progress (paper §IV-A)."""
        self._driver = driver
        self._driver_bars = {}

    # ------------------------------------------------------------------
    # The planes, each built by the module the server's manifest names
    # ------------------------------------------------------------------
    @property
    def simulation(self) -> Optional[Simulation]:
        """The registered simulation (``None`` until there is one)."""
        return self._simulation

    def ensure_injector(self, seed: int = 0):
        """Return the attached fault injector, creating one first."""
        return _plane("/api/faults").ensure_injector(self, seed)

    def ensure_tracer(self, backend: str = "ring", capacity: int = 65536,
                      db_path: Optional[str] = None,
                      include: Optional[str] = None):
        """Return the attached tracer, creating one on first use:
        ``backend`` is ``"ring"`` (bounded in-memory, default) or
        ``"sqlite"`` (durable; needs ``db_path``)."""
        return _plane("/api/trace").ensure_tracer(
            self, backend, capacity, db_path, include)

    def ensure_sim_metrics(self):
        """Return the simulation instrumentation, creating (but not
        starting) it on first use.  The registry is the monitor's own,
        so simulation vitals and monitor-side families share one
        namespace."""
        if self.sim_metrics is None:
            if self._simulation is None:
                raise RuntimeError(
                    "simulation metrics need a registered simulation")
            self.sim_metrics = _plane("/metrics").SimMetrics(
                self._simulation, self.metrics)
        return self.sim_metrics

    def start_continuous_profiling(self, **config):
        """Start the one rolling profiler (T4, overhead attribution) and
        return it; *config* configures it when this call creates it."""
        return _plane("/api/profile").start_continuous_profiling(
            self, **config)

    def attach_checkpointer(self, checkpointer) -> None:
        """Expose *checkpointer* over ``/api/checkpoint`` and give the
        watchdog its restore escalation: on an unrecoverable hang the
        watchdog persists one final (restorable) snapshot of the hung
        state before aborting, so the retry can resume instead of
        cold-starting.  Replaces (and stops) any previous one."""
        _plane("/api/checkpoint")
        if self.checkpointer is not None \
                and self.checkpointer is not checkpointer:
            self.checkpointer.stop()
        self.checkpointer = checkpointer

    def enable_watchdog(self, **config):
        """Create, attach and start a :class:`~repro.core.watchdog.
        Watchdog`, stopping any previous one; keyword arguments populate
        its :class:`~repro.core.watchdog.WatchdogConfig`."""
        plane = _plane("/api/watchdog")
        watchdog = plane.Watchdog(self, plane.WatchdogConfig(**config))
        if self.watchdog is not None:
            self.watchdog.stop()
        self.watchdog = watchdog
        watchdog.start()
        return watchdog

    # ------------------------------------------------------------------
    # Progress bars (Go API #3, #4, #5)
    # ------------------------------------------------------------------
    def create_progress_bar(self, name: str, total: int = 0,
                            provider=None) -> ProgressBar:
        bar = ProgressBar(name, total, provider)
        bar.id = next(self._bar_numbers)
        self._bars[bar.id] = bar
        return bar

    def update_progress_bar(self, bar: ProgressBar, completed: int,
                            ongoing: int = 0,
                            total: Optional[int] = None) -> None:
        bar.update(completed, ongoing, total)

    def destroy_progress_bar(self, bar: ProgressBar) -> None:
        self._bars.pop(bar.id, None)

    def progress_bars(self) -> List[ProgressBar]:
        """All bars: explicitly created ones plus live bars for every
        kernel/memcopy the attached driver knows about."""
        with self._bars_lock:
            bars = list(self._bars.values())
            if self._driver is None:
                return bars
            known = self._driver_bars
            for states, bar_for in (
                    (self._driver.kernels, ProgressBar.for_kernel),
                    (self._driver.memcopies, ProgressBar.for_memcopy)):
                for state in states:
                    bar = known.get(id(state))
                    if bar is None:
                        bar = known[id(state)] = bar_for(state)
                        bar.id = next(self._bar_numbers)
                    bars.append(bar)
        return bars

    # ------------------------------------------------------------------
    # Simulation control (Go API #8, #9, #11, #12)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Park the simulation thread at the next event boundary."""
        self._require_engine().pause()

    def continue_(self) -> None:
        self._require_engine().continue_()

    @property
    def paused(self) -> bool:
        return self._require_engine().paused

    def now(self) -> float:
        """Current simulation time (Go API ``CurrentTime``)."""
        return self._require_engine().now

    def tick_component(self, name: str) -> bool:
        """The *Tick* button: schedule a wake-up tick for a (possibly
        sleeping) component so its state machine can be stepped during
        hang debugging.  Returns False for unknown/non-ticking
        components."""
        component = self._components.get(name)
        if not isinstance(component, TickingComponent):
            return False
        component.tick_later()
        return True

    def kick_start(self) -> None:
        """The *Kick Start* button: resume a run loop parked on a dry
        event queue (used together with :meth:`tick_component`)."""
        if self._simulation is not None:
            self._simulation.kickstart()

    def set_throttle(self, events_per_second: float = 0.0) -> None:
        """Slow the simulation to human speed ("slowing down time",
        §V-C) so individual component ticks can be caught live.
        0 restores full speed."""
        self._require_engine().set_throttle(events_per_second)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def component_names(self) -> List[str]:
        return list(self._components.keys())

    def component(self, name: str) -> Any:
        return self._components[name]

    def has_component(self, name: str) -> bool:
        return name in self._components

    def component_detail(self, name: str) -> Dict[str, Any]:
        """Serialize one component (one component per request — the
        fine-granularity rule of §VII)."""
        detail = serialize_component(self._components[name])
        detail["watchable"] = watchable_paths(self._components[name])
        detail["ticking"] = isinstance(self._components[name],
                                       TickingComponent)
        return detail

    def component_tree(self) -> Dict[str, Any]:
        """The hierarchical component view (paper Fig. 2 B/D)."""
        root: Dict[str, Any] = {}
        for name in self._components:
            node = root
            for segment in name.split("."):
                node = node.setdefault(segment, {})
        return root

    # ------------------------------------------------------------------
    # §VIII extensions: topology map and port throughput
    # ------------------------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        """A graph view of how components are connected (the "map of
        how components are connected" the paper proposes in §VIII to
        flatten the learning curve)."""
        if self._simulation is None:
            return {"connections": []}
        return {"connections": [
            {"name": conn.name,
             "latency": conn.latency,
             "messages": conn.msg_count,
             "ports": [p.name for p in conn.ports]}
            for conn in self._simulation.connections]}

    def port_throughput(self, component_name: str) -> List[Dict[str, Any]]:
        """Cumulative sent/delivered counts per port of one component
        ("real-time achieved throughput of ports", §VIII).  Clients
        compute rates from deltas between polls."""
        component = self._components[component_name]
        ports = getattr(component, "ports", [])
        return [{"port": p.name, "sent": p.num_sent,
                 "delivered": p.num_delivered,
                 "buffered": p.buf.size} for p in ports]

    # ------------------------------------------------------------------
    # Value monitoring
    # ------------------------------------------------------------------
    def watch_value(self, component_name: str, path: str,
                    label: Optional[str] = None) -> ValueWatch:
        """Start a time chart for ``component.path`` (the flag icon)."""
        component = self._components[component_name]
        return self.values.watch(component, path, label)

    # ------------------------------------------------------------------
    # Alerts ("fail early, fail fast" automation)
    # ------------------------------------------------------------------
    def add_alert(self, component_name: str, path: str, op: str,
                  threshold: float, duration: float = 0.0,
                  action: str = "notify") -> AlertRule:
        """Watch ``component.path <op> threshold`` for *duration* wall
        seconds; on firing, flag it (``notify``) or terminate the run
        (``abort``).  Requires the sampler thread (or manual
        :meth:`check_alerts` calls) to evaluate.  (A hung run is aborted
        by the watchdog: ``enable_watchdog(max_tick_retries=0)``.)"""
        rule = AlertRule(self._components[component_name], path, op,
                         threshold, duration, action)
        return self.alerts.add(rule)

    def check_alerts(self) -> List[Dict[str, Any]]:
        """One evaluation pass over all rules (sampler calls this);
        returns the new transitions."""
        return self.alerts.evaluate_all(self._require_engine().now)

    # ------------------------------------------------------------------
    # Status aggregates
    # ------------------------------------------------------------------
    def overview(self) -> Dict[str, Any]:
        engine = self._require_engine()
        state = (self._simulation.run_state if self._simulation
                 else engine.run_state.value)
        return {
            "now": engine.now,
            "run_state": state,
            "paused": engine.paused,
            "event_count": engine.event_count,
            "pending_events": engine.pending_event_count,
            "num_components": len(self._components),
            "num_buffers": self.analyzer.buffer_count,
            "sampler": self.sampler.status(),
        }

    def hang_status(self) -> HangStatus:
        if self.hang is None:
            raise NoSimulation("no simulation registered")
        cpu = self.resources.sample().cpu_percent if self.resources \
            else None
        return self.hang.check(cpu)

    # ------------------------------------------------------------------
    # Sampler thread (feeds time charts + hang history)
    # ------------------------------------------------------------------
    def start_sampler(self) -> None:
        """Start the background sampler.  Optional: a polling client
        (like the web frontend) can drive sampling itself instead."""
        self.sampler.start()

    def stop_sampler(self) -> None:
        self.sampler.stop()

    def _sample(self) -> None:
        if self._engine is None:
            return
        self.values.sample_all(self._engine.now)
        if self.hang is not None:  # a simulation, so resources too
            self.hang.record(self.resources.sample().cpu_percent)
        self.check_alerts()

    # ------------------------------------------------------------------
    # Server lifecycle (Go API #6, #7)
    # ------------------------------------------------------------------
    def start_server(self, port: int = 0,
                     host: str = "127.0.0.1") -> str:
        """Start the HTTP backend; returns the URL (printed to the
        terminal in the paper's workflow)."""
        from .server import RTMServer
        if self._server is not None:
            return self._server.url
        self._server = RTMServer(self, host=host, port=port)
        self._server.start()
        return self._server.url

    def stop_server(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        self.stop_planes()

    def stop_planes(self) -> None:
        """Stop everything simulation-scoped — every plane but the HTTP
        server, which a warm fleet worker keeps across jobs."""
        for plane in (self.sampler, self.watchdog, self.checkpointer,
                      self.tracer, self.sim_metrics, self.profiler):
            if plane is not None:
                plane.stop()

    @property
    def url(self) -> Optional[str]:
        return self._server.url if self._server is not None else None

    # ------------------------------------------------------------------
    def _require_engine(self) -> Engine:
        if self._engine is None:
            raise RuntimeError(
                "no engine registered; call register_engine or "
                "register_simulation first")
        return self._engine
