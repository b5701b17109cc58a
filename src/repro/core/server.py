"""The AkitaRTM HTTP backend.

Turns any monitored simulation into a web server (paper §IV-A): the
frontend (static files under ``repro/core/static``) polls these JSON
endpoints.  The same endpoints are the paper's "HTTP API" that lets
simulators written in other languages plug in, and they are what the
:mod:`repro.core.client` drives in tests, benchmarks and the simulated
user study.

:data:`ROUTES` is the whole API: one row per endpoint, bound to the
:class:`RTMServer` method that answers it.  A route returns its answer
or raises (:mod:`repro.core.http` holds the contract, the dispatch and
the transport); what the table does not name is a static file.  The
monitor performs all work on demand, serializing one component or value
per request (§VII's low-overhead design choices 1 and 2), in a thread
parallel to the simulation thread (choice 3).

Status-code discipline: 400 for malformed or missing query parameters
and for a monitor that has no engine yet, 404 for unknown
component/alert/watch/fault ids, 500 only for genuine route bugs (the
dispatch's backstop).
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, Optional, Tuple

from ..metrics import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..metrics import expose as _expose
from ..metrics import snapshot_delta as _snapshot_delta
from .http import (BadRequest, EventStream, HTTPServerThread, NotFound,
                   Response, action_param, float_param, int_param,
                   route_table)

STATIC_DIR = os.path.join(os.path.dirname(os.path.realpath(__file__)),
                          "static")

_CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".js": "application/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
    ".svg": "image/svg+xml",
    ".json": "application/json",
}

#: ``(method, "path?parameters", RTMServer method, purpose)``
ROUTES = (
    ("GET", "/api/overview", "_overview", "sim time, run state, event counts"),
    ("GET", "/api/resources", "_resources", "CPU%, RSS, events/s (T2)"),
    ("GET", "/api/components", "_components", "hierarchical component tree"),
    ("GET", "/api/component?name", "_component",
     "one component, serialized (T5)"),
    ("GET", "/api/value?component&path", "_value",
     "one monitored value (time charts)"),
    ("GET", "/api/buffers?sort&top", "_buffers",
     "bottleneck analyzer table (T5)"),
    ("GET", "/api/progress", "_progress", "progress bars (T1)"),
    ("GET", "/api/hang", "_hang", "hang heuristic verdict (T3)"),
    ("GET", "/api/topology", "_topology", "connection graph (§VIII ext.)"),
    ("GET", "/api/throughput?component", "_throughput",
     "per-port message counts (§VIII)"),
    ("GET", "/api/alerts", "_alerts", "alert rules + firing state"),
    ("POST", "/api/alert?component&path&op&threshold&duration&action",
     "_add_alert", "add a fail-fast alert rule"),
    ("DELETE", "/api/alert?id", "_remove_alert", "remove an alert rule"),
    ("GET", "/api/faults", "_faults", "armed fault specs + stats"),
    ("POST", "/api/faults?kind&target&seed&start&end&probability&delay",
     "_arm_fault", "arm a fault (drop/delay/stall...)"),
    ("DELETE", "/api/faults?id", "_revoke_fault", "disarm a fault"),
    ("GET", "/api/watchdog", "_watchdog", "supervision state + post-mortem"),
    ("POST", "/api/watchdog?action=start|stop&...", "_control_watchdog",
     "control the watchdog"),
    ("GET", "/api/checkpoint", "_checkpoint", "checkpointer status"),
    ("POST", "/api/checkpoint?action=save", "_save_checkpoint",
     "pause, save a checkpoint, continue"),
    ("GET", "/metrics", "_prometheus", "Prometheus text exposition"),
    ("GET", "/api/metrics?names&delta", "_metrics",
     "registry snapshot (?delta=1)"),
    ("GET", "/api/stream?interval&count&names&attach", "_stream",
     "SSE: periodic snapshot pushes"),
    ("POST", "/api/metrics?action=start|stop", "_control_metrics",
     "attach/detach sim instrumentation"),
    ("GET", "/api/trace", "_trace", "tracer status + store stats"),
    ("GET", "/api/trace/query?component&kind&t0&t1&msg_id&limit",
     "_trace_query", "filtered trace events"),
    ("GET", "/api/trace/follow?msg_id", "_trace_follow",
     "one message's hops + path"),
    ("GET", "/api/trace/export?format&path&limit", "_trace_export",
     "JSONL / Perfetto export"),
    ("POST", "/api/trace?action=start|stop|clear&backend&capacity&db&include",
     "_control_trace", "control the tracer"),
    ("GET", "/api/profile?top", "_profile", "simulation-thread report (T4)"),
    ("POST", "/api/profile/start", "_start_profile",
     "start the sampling profiler"),
    ("POST", "/api/profile/stop", "_stop_profile",
     "stop the sampling profiler"),
    ("GET", "/api/profile/windows?last", "_profile_windows",
     "the profiler's window ring"),
    ("GET", "/api/profile/attribution?last&top", "_profile_attribution",
     "overhead decomposed by layer"),
    ("GET", "/api/profile/export?format&last&role&path", "_profile_export",
     "collapsed / speedscope export"),
    ("POST", "/api/profile/continuous?action=start|stop&interval&...",
     "_control_profile", "the same start|stop, configurable"),
    ("POST", "/api/pause", "_pause", "simulation control"),
    ("POST", "/api/continue", "_continue", "simulation control"),
    ("POST", "/api/kickstart", "_kickstart", "resume a dry run loop"),
    ("POST", "/api/throttle?events_per_second", "_throttle",
     "slow down time (§V-C)"),
    ("POST", "/api/tick?component", "_tick",
     "wake one component (Tick button)"),
    ("POST", "/api/watch?component&path", "_add_watch",
     "add a time-chart watch"),
    ("GET", "/api/watches", "_watches", "all watches + their 300-pt series"),
    ("DELETE", "/api/watch?id", "_remove_watch", "remove a watch"),
)


def _ensure_sim_metrics_started(monitor) -> None:
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


def _last_param(params: Dict[str, str]) -> Optional[int]:
    last = int_param(params, "last", 0)
    if last < 0:
        raise BadRequest("parameter 'last' must be >= 0")
    return last or None


class RTMServer(HTTPServerThread):
    """The monitor-bound HTTP server: :data:`ROUTES` over its own
    methods, each reading ``self.monitor`` once, at its start.

    Classically one per simulation; a warm fleet worker instead keeps
    one server alive across many simulations and :meth:`rebind`\\ s it
    to each job's fresh monitor — the worker's dashboard URL (and the
    gateway's reverse-proxy route to it) stays stable for the process
    lifetime while the simulation behind it changes.
    """

    thread_name = "rtm-server"

    def __init__(self, monitor, host: str = "127.0.0.1", port: int = 0):
        self.monitor = monitor
        #: ``(monitor, its snapshot)`` as of the last ``?delta=1`` answer.
        self._metrics_prev: Tuple[Any, Dict[str, Any]] = (None, {})
        super().__init__(route_table(ROUTES, self), host=host, port=port)

    @property
    def request_registry(self):
        return getattr(self.monitor, "metrics", None)

    def rebind(self, monitor) -> None:
        """Point the server at a different monitor.

        Every route resolves ``monitor`` once, when its request starts,
        so this switches every *subsequent* request atomically; requests
        already in flight finish against the monitor they started with.
        """
        self.monitor = monitor
        # The ``?delta=1`` baseline is keyed to the monitor it was taken
        # from; dropping it lets that monitor's simulation be collected.
        self._metrics_prev = (None, {})

    # -- what the routes share -----------------------------------------------
    def _with_engine(self):
        """The monitor, for a route that reads or drives its engine.  A
        warm fleet worker serves ``Monitor()`` from boot until its first
        job: a state of the service, not a route bug, so 400 — as
        ``/api/hang`` answers it."""
        monitor = self.monitor
        if monitor.resources is None:  # register_engine() sets it
            raise BadRequest("no engine registered; this monitor has no "
                             "simulation yet")
        return monitor

    def _component_param(self, params: Dict[str, str],
                         key: str = "component"):
        """``(monitor, name)`` for the registered component *key* names."""
        monitor, name = self.monitor, params.get(key, "")
        if not monitor.has_component(name):
            raise NotFound(f"unknown component {name!r}")
        return monitor, name

    def _profiler(self):
        profiler = self.monitor.profiler
        if profiler is None:
            raise NotFound("profiler never started; POST /api/profile/start")
        return profiler

    def _tracer(self):
        tracer = self.monitor.tracer
        if tracer is None:
            raise NotFound("no tracer attached; POST /api/trace?action=start")
        return tracer

    # -- static files ------------------------------------------------------
    def unrouted(self, method: str, path: str, query: str) -> Response:
        """The dashboard: a GET the table does not name is a file under
        ``static/``, or nothing."""
        if method != "GET":
            raise NotFound("not found")
        if path in ("/", "/index.html"):
            path = "/index.html"
        rel = path.lstrip("/").replace("static/", "", 1)
        target = os.path.realpath(os.path.join(STATIC_DIR, rel))
        if not target.startswith(STATIC_DIR + os.sep) \
                or not os.path.isfile(target):
            raise NotFound("not found")
        with open(target, "rb") as f:
            body = f.read()
        return Response(body, _CONTENT_TYPES.get(
            os.path.splitext(target)[1], "application/octet-stream"))

    # -- views -------------------------------------------------------------
    def _overview(self, params):
        return self._with_engine().overview()

    def _resources(self, params):
        return self._with_engine().resources.sample().to_dict()

    def _components(self, params):
        monitor = self.monitor
        return {"tree": monitor.component_tree(),
                "names": monitor.component_names()}

    def _component(self, params):
        monitor, name = self._component_param(params, "name")
        return monitor.component_detail(name)

    def _value(self, params):
        from .inspector import numeric_value, resolve_path
        monitor, name = self._component_param(params)
        path = params.get("path", "")
        try:
            raw = resolve_path(monitor.component(name), path)
        except (AttributeError, KeyError, IndexError, TypeError) as exc:
            raise BadRequest(f"bad path {path!r}: {exc}") from None
        return {"component": name, "path": path, "time": monitor.now(),
                "value": numeric_value(raw)}

    def _buffers(self, params):
        sort = params.get("sort", "percent")
        top = int_param(params, "top", 50)
        try:
            rows = self.monitor.analyzer.snapshot(sort=sort, top=top)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return {"buffers": [r.to_dict() for r in rows]}

    def _progress(self, params):
        return {"bars": [b.to_dict() for b in self.monitor.progress_bars()]}

    def _hang(self, params):
        monitor = self.monitor
        if monitor.hang is None:
            raise BadRequest("hang detection needs a registered simulation")
        return monitor.hang_status().to_dict()

    def _topology(self, params):
        return self.monitor.topology()

    def _throughput(self, params):
        monitor, name = self._component_param(params)
        return {"ports": monitor.port_throughput(name)}

    def _watches(self, params):
        monitor = self._with_engine()
        monitor.values.sample_all(monitor.now())
        return {"watches": monitor.values.to_dict()}

    def _add_watch(self, params):
        monitor, name = self._component_param(params)
        watch = monitor.watch_value(name, params.get("path", ""))
        return {"id": watch.id, "label": watch.label}

    def _remove_watch(self, params):
        watch_id = int_param(params, "id", 0)
        if not self.monitor.values.unwatch(watch_id):
            raise NotFound(f"unknown watch id {watch_id}")
        return {"removed": True}

    # -- alerts, faults, supervision ---------------------------------------
    def _alerts(self, params):
        return {"alerts": self.monitor.alerts.to_dict()}

    def _add_alert(self, params):
        monitor, name = self._component_param(params)
        try:
            rule = monitor.add_alert(
                name, params.get("path", ""), params.get("op", ">="),
                float_param(params, "threshold", 0.0),
                float_param(params, "duration", 0.0),
                params.get("action", "notify"))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return {"id": rule.id, "label": rule.label}

    def _remove_alert(self, params):
        rule_id = int_param(params, "id", 0)
        if not self.monitor.alerts.remove(rule_id):
            raise NotFound(f"unknown alert id {rule_id}")
        return {"removed": True}

    def _faults(self, params):
        injector = self.monitor.injector
        return {"armed": injector is not None,
                "faults": injector.to_dict() if injector else [],
                "stats": injector.stats() if injector else {}}

    def _arm_fault(self, params):
        """Arm one fault: ``kind`` + ``target`` are required."""
        from ..faults.injector import FaultKind, FaultSpec
        kind = params.get("kind", "")
        target = params.get("target", "")
        if kind not in [k.value for k in FaultKind]:
            raise BadRequest(
                f"kind must be one of "
                f"{sorted(k.value for k in FaultKind)}, got {kind!r}")
        if not target:
            raise BadRequest("parameter 'target' is required")
        try:
            injector = self.monitor.ensure_injector(
                seed=int_param(params, "seed", 0))
        except RuntimeError as exc:
            raise BadRequest(str(exc)) from None
        try:
            spec = injector.inject(FaultSpec(
                FaultKind(kind), target,
                start=float_param(params, "start", 0.0),
                end=float_param(params, "end"),
                probability=float_param(params, "probability", 1.0),
                delay=float_param(params, "delay", 0.0)))
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return spec.to_dict()

    def _revoke_fault(self, params):
        spec_id = int_param(params, "id", 0)
        injector = self.monitor.injector
        if injector is None or not injector.revoke(spec_id):
            raise NotFound(f"unknown fault id {spec_id}")
        return {"removed": True}

    def _watchdog(self, params):
        watchdog = self.monitor.watchdog
        return {"enabled": watchdog is not None,
                **(watchdog.to_dict() if watchdog else {})}

    def _control_watchdog(self, params):
        monitor = self.monitor
        if action_param(params, "start", "stop") == "stop":
            if monitor.watchdog is None:
                raise NotFound("no watchdog attached")
            monitor.watchdog.stop()
            return monitor.watchdog.to_dict()
        config: Dict[str, Any] = {}
        for key in ("check_interval", "retry_wait"):
            if key in params:
                config[key] = float_param(params, key)
        for key in ("max_tick_retries", "max_suspects", "trace_window"):
            if key in params:
                config[key] = int_param(params, key, 0)
        for key in ("recover", "abort_on_failure"):
            if key in params:
                config[key] = params[key].lower() not in (
                    "0", "false", "no")
        if "snapshot_dir" in params:
            config["snapshot_dir"] = params["snapshot_dir"]
        return monitor.enable_watchdog(**config).to_dict()

    def _checkpoint(self, params):
        checkpointer = self.monitor.checkpointer
        return {"enabled": checkpointer is not None,
                **(checkpointer.status() if checkpointer else {})}

    def _save_checkpoint(self, params):
        checkpointer = self.monitor.checkpointer
        if checkpointer is None:
            raise BadRequest("no checkpointer attached")
        if params.get("action", "save") != "save":
            raise BadRequest("unknown action (expected save)")
        saved = checkpointer.save_paused()
        return {"saved": saved, **checkpointer.status()}

    # -- simulation control ------------------------------------------------
    def _pause(self, params):
        self._with_engine().pause()
        return {"paused": True}

    def _continue(self, params):
        self._with_engine().continue_()
        return {"paused": False}

    def _kickstart(self, params):
        self.monitor.kick_start()
        return {"ok": True}

    def _throttle(self, params):
        eps = float_param(params, "events_per_second", 0.0)
        self._with_engine().set_throttle(eps)
        return {"events_per_second": eps}

    def _tick(self, params):
        monitor, name = self.monitor, params.get("component", "")
        if not monitor.tick_component(name):
            raise BadRequest(f"{name!r} is not a ticking component")
        monitor.kick_start()
        return {"ticked": name}

    # -- metrics -----------------------------------------------------------
    def _prometheus(self, params):
        monitor = self.monitor
        _ensure_sim_metrics_started(monitor)
        return Response(_expose(monitor.metrics).encode(),
                        _PROM_CONTENT_TYPE)

    def _metrics(self, params):
        monitor = self.monitor
        _ensure_sim_metrics_started(monitor)
        current = monitor.metrics.snapshot(_names_param(params))
        want_delta = params.get("delta", "") not in ("", "0", "false")
        if want_delta:
            # Deltas span requests but not server restarts, and the
            # previous snapshot counts only for the monitor it was
            # taken from: the first delta after a rebind() starts from
            # zero.
            taken_from, previous = self._metrics_prev
            self._metrics_prev = (monitor, current)
            current = _snapshot_delta(
                previous if taken_from is monitor else {}, current)
        return {"delta": want_delta, "metrics": current}

    def _stream(self, params):
        """Server-Sent Events: push snapshots until the client leaves,
        ``count`` is reached, or the server stops."""
        monitor = self.monitor
        interval = max(0.05, float_param(params, "interval", 0.5))
        count = int_param(params, "count", 0)
        names = _names_param(params)
        # attach=0 lets passive consumers (the dashboard header) stream
        # overview/resources without attaching simulation hooks — an open
        # browser tab must not perturb the overhead it displays.
        if params.get("attach", "1") not in ("0", "false"):
            _ensure_sim_metrics_started(monitor)

        def snapshot():
            payload: Dict[str, Any] = {
                "metrics": monitor.metrics.snapshot(names)}
            if monitor.resources is not None:  # an engine is registered
                payload["overview"] = monitor.overview()
                payload["resources"] = monitor.resources.sample().to_dict()
            return (payload,)

        return EventStream(snapshot, interval, count)

    def _control_metrics(self, params):
        monitor = self.monitor
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

    # -- profiling ---------------------------------------------------------
    def _profile(self, params):
        top = int_param(params, "top", 15)
        profiler = self.monitor.profiler
        if profiler is None:
            return {"duration": 0.0, "samples": 0, "functions": [],
                    "edges": [], "running": False,
                    "continuous": {"running": False}}
        payload = profiler.report(top)
        payload["running"] = profiler.running
        payload["continuous"] = profiler.status()
        return payload

    def _start_profile(self, params):
        self.monitor.start_continuous_profiling()
        return {"profiling": True}

    def _stop_profile(self, params):
        profiler = self.monitor.profiler
        if profiler is not None:
            profiler.stop()
        return {"profiling": False}

    def _profile_windows(self, params):
        profiler = self._profiler()
        return {"status": profiler.status(),
                "windows": profiler.windows(_last_param(params))}

    def _profile_attribution(self, params):
        profiler = self._profiler()
        return profiler.attribution(_last_param(params),
                                    top=int_param(params, "top", 20))

    def _profile_export(self, params):
        profiler = self._profiler()
        fmt = params.get("format", "speedscope")
        last = _last_param(params)
        if fmt == "collapsed":
            payload: Any = profiler.collapsed(last, role=params.get("role"))
        elif fmt == "speedscope":
            payload = profiler.speedscope(last)
        elif fmt == "summary":
            payload = profiler.summary(last)
        else:
            raise BadRequest(
                f"format must be 'collapsed', 'speedscope' or "
                f"'summary', got {fmt!r}")
        dest = params.get("path")
        if dest is not None:
            from .atomicio import atomic_write_text
            atomic_write_text(
                dest, payload if isinstance(payload, str)
                else json.dumps(payload, indent=2))
            return {"written": dest, "format": fmt}
        if isinstance(payload, str):
            return Response(payload.encode(), "text/plain; charset=utf-8")
        return payload

    def _control_profile(self, params):
        if action_param(params, "start", "stop") == "stop":
            profiler = self._profiler()
            profiler.stop()
            return profiler.status()
        config: Dict[str, Any] = {}
        for key in ("interval", "window_seconds", "backoff_after",
                    "max_interval"):
            if key in params:
                config[key] = float_param(params, key)
        if "ring" in params:
            config["ring"] = int_param(params, "ring", 15)
        try:
            profiler = self.monitor.start_continuous_profiling(**config)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        return profiler.status()

    # -- trace -------------------------------------------------------------
    def _trace(self, params):
        tracer = self.monitor.tracer
        return {"attached": tracer is not None,
                **(tracer.status() if tracer else {})}

    def _trace_query(self, params):
        tracer = self._tracer()
        filters: Dict[str, Any] = {"limit": int_param(params, "limit", 200)}
        if "component" in params:
            try:
                re.compile(params["component"])
            except re.error as exc:
                raise BadRequest(f"bad component regex: {exc}") from None
            filters["component"] = params["component"]
        if "kind" in params:
            filters["kind"] = params["kind"].split(",")
        if "t0" in params:
            filters["t0"] = float_param(params, "t0")
        if "t1" in params:
            filters["t1"] = float_param(params, "t1")
        if "msg_id" in params:
            filters["msg_id"] = int_param(params, "msg_id", 0)
        events = tracer.query(**filters)
        return {"count": len(events),
                "events": [ev.to_dict() for ev in events]}

    def _trace_follow(self, params):
        from ..trace import message_path
        tracer = self._tracer()
        if "msg_id" not in params:
            raise BadRequest("parameter 'msg_id' is required")
        msg_id = int_param(params, "msg_id", 0)
        events = tracer.follow(msg_id)
        if not events:
            raise NotFound(f"no trace events for message {msg_id}")
        return {"msg_id": msg_id,
                "events": [ev.to_dict() for ev in events],
                "path": message_path(events)}

    def _trace_export(self, params):
        from ..trace import export_events
        tracer = self._tracer()
        fmt = params.get("format", "jsonl")
        events = tracer.query(limit=int_param(params, "limit", 0))
        dest = params.get("path")
        try:
            payload = export_events(events, fmt, dest)
        except ValueError as exc:
            raise BadRequest(str(exc)) from None
        if dest is not None:
            return {"written": str(payload), "count": len(events),
                    "format": fmt}
        return payload

    def _control_trace(self, params):
        action = action_param(params, "start", "stop", "clear")
        if action == "start":
            try:
                tracer = self.monitor.ensure_tracer(
                    backend=params.get("backend", "ring"),
                    capacity=int_param(params, "capacity", 65536),
                    db_path=params.get("db"),
                    include=params.get("include"))
            except (RuntimeError, ValueError) as exc:
                raise BadRequest(str(exc)) from None
            tracer.start()
        else:
            tracer = self._tracer()
            if action == "stop":
                tracer.stop()
            else:
                tracer.clear()
        return tracer.status()
