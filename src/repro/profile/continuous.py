"""The one sampling profiler: always-on, rolling, role-labelled.

It serves the paper's profiler panel (task **T4**, Figure 2 E — the Go
original shells into ``pprof``; :meth:`ContinuousProfiler.report` is
the same top-N self/total table plus caller→callee arcs for the
simulation thread) and is designed to run for the whole life of a
campaign:

* it keeps a **ring of fixed-duration profile windows** instead of one
  global aggregate, so "what was the simulation doing in the last
  thirty seconds" is answerable at any time without ever restarting;
* every sample is labeled with its **thread role** (simulation,
  server, monitor, …) via :mod:`repro.akita.threads`, so the server
  thread's time can never masquerade as simulation time;
* every sampled stack is **attributed to a layer** (folded in at
  window close so classification runs once per unique stack, not once
  per sample), feeding the cumulative
  ``rtm_profile_layer_seconds_total{layer=,thread=}`` registry family
  — the overhead decomposition rides ``/metrics``, SSE, federation and
  alert rules like any other family;
* when nobody has read a profile for a while it **backs off** its
  sampling rate geometrically (an unread profiler should cost
  approximately nothing); any read resets it to the base rate.

Also the RTM server's profile plane: :func:`start_continuous_profiling`,
:data:`ROUTES`.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..akita import threads as _threads
from ..core.http import BadRequest, NotFound, Response, int_param
from .attribution import (Stack, attribution_report, classify_stack,
                          make_summary, ranked_functions)
from .export import collapsed_stacks, frame_label, speedscope_document

#: Windows kept in the ring.
RING = 15
#: Back-off: the sampling interval doubles per this many unread
#: seconds, up to :data:`MAX_INTERVAL` (or the base interval, if longer).
BACKOFF_AFTER = 30.0
MAX_INTERVAL = 0.25


class ProfileWindow:
    """One fixed-duration slice of the rolling profile."""

    __slots__ = ("index", "wall_started", "started", "duration",
                 "samples", "stacks")

    def __init__(self, index: int, started: float, wall_started: float):
        self.index = index
        self.started = started
        self.wall_started = wall_started
        self.duration = 0.0
        self.samples = 0
        #: thread role -> leaf-first stack -> seconds
        self.stacks: Dict[str, Dict[Stack, float]] = {}

    def record(self, role: str, stack: Stack, dt: float) -> None:
        per = self.stacks.get(role)
        if per is None:
            per = self.stacks[role] = {}
        per[stack] = per.get(stack, 0.0) + dt

    def summary(self) -> Dict[str, Any]:
        """A small per-window digest (the ``/api/profile/windows``
        row): when it ran, how much it saw, where the time went."""
        layers: Dict[str, float] = {}
        for per_stack in self.stacks.values():
            for stack, seconds in per_stack.items():
                layer = classify_stack(stack)
                layers[layer] = layers.get(layer, 0.0) + seconds
        return {
            "index": self.index,
            "wall_started": round(self.wall_started, 3),
            "duration": round(self.duration, 3),
            "samples": self.samples,
            "threads": {role: round(sum(per.values()), 4)
                        for role, per in self.stacks.items()},
            "layers": {layer: round(sec, 4)
                       for layer, sec in sorted(layers.items(),
                                                key=lambda kv: -kv[1])},
        }


class ContinuousProfiler:
    """Always-on low-rate rolling profiler over every thread of
    interest, with adaptive back-off when nobody is reading."""

    def __init__(self, interval: float = 0.02,
                 window_seconds: float = 2.0):
        # ``not x > 0`` also refuses NaN, which would spin the sampler.
        if not interval > 0:
            raise ValueError(f"interval must be > 0, got {interval!r}")
        if not window_seconds > 0:
            raise ValueError(
                f"window_seconds must be > 0, got {window_seconds!r}")
        self.interval = interval
        self.window_seconds = window_seconds
        self._ring: Deque[ProfileWindow] = deque(maxlen=RING)
        self._window: Optional[ProfileWindow] = None
        self._windows_opened = 0
        self._samples_total = 0
        #: cumulative (thread role, layer) -> seconds over *closed*
        #: windows, never reset while running: the monotonically
        #: increasing counter family (readers add the open window).
        self._layer_totals: Dict[tuple, float] = {}
        #: thread ident -> thread name.  Only the name is cached: an
        #: explicit role claim (``Engine.run``) can arrive mid-window
        #: and must show on the very next sample.
        self._name_cache: Dict[int, str] = {}
        #: code object -> (name, path, firstlineno): frames are rebuilt
        #: on every sample but their code objects are long-lived, so
        #: interning keeps the sample path nearly allocation-free.
        self._frame_cache: Dict[Any, tuple] = {}
        #: leaf-first stack -> layer memo for the window-close fold.
        self._stack_layers: Dict[Stack, str] = {}
        self._last_touch = time.monotonic()
        self._lock = threading.Lock()
        self.loop = _threads.Periodic(
            "rtm-cprofiler", lambda: self.effective_interval, self._sample)
        self._registry = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.loop.running

    def start(self) -> None:
        """Begin continuous sampling.  Idempotent."""
        if not self.running:
            self._last_touch = time.monotonic()
        self.loop.start()

    def stop(self) -> None:
        """Stop sampling; the ring and totals stay readable."""
        self.loop.stop()
        with self._lock:
            self._close_window(time.monotonic())

    def touch(self) -> None:
        """Note that somebody is reading: resets the back-off."""
        self._last_touch = time.monotonic()

    # ------------------------------------------------------------------
    # Sampling loop
    # ------------------------------------------------------------------
    @property
    def effective_interval(self) -> float:
        """The interval the sampler is using right now: the base rate
        while read, doubling per idle :data:`BACKOFF_AFTER` period up to
        :data:`MAX_INTERVAL` once nobody looks."""
        idle = time.monotonic() - self._last_touch
        if idle <= BACKOFF_AFTER:
            return self.interval
        periods = min(8, int(idle / BACKOFF_AFTER))
        return min(max(MAX_INTERVAL, self.interval),
                   self.interval * (2 ** periods))

    def _sample(self) -> None:
        me = threading.get_ident()
        dt = self.effective_interval
        now = time.monotonic()
        frames = sys._current_frames()
        with self._lock:
            window = self._window
            if window is None or \
                    now - window.started >= self.window_seconds:
                self._close_window(now)
                window = self._open_window(now)
            for thread_id, frame in frames.items():
                if thread_id == me:
                    continue
                role = self._role_of(thread_id)
                stack = self._walk(frame)
                if not stack:
                    continue
                window.record(role, stack, dt)
            window.samples += 1
            self._samples_total += 1

    def _open_window(self, now: float) -> ProfileWindow:
        self._windows_opened += 1
        self._window = ProfileWindow(self._windows_opened, now,
                                     time.time())
        # Idents are reused once a thread exits; re-resolve lazily.
        self._name_cache.clear()
        return self._window

    def _close_window(self, now: float) -> None:
        if self._window is not None:
            window = self._window
            window.duration = max(0.0, now - window.started)
            # Fold the window's stacks into the cumulative counter:
            # classification runs here, once per unique stack per
            # window, instead of on the 50 Hz sample path.
            for key, sec in self._window_breakdown(window).items():
                self._layer_totals[key] = \
                    self._layer_totals.get(key, 0.0) + sec
            self._ring.append(window)
            self._window = None

    def _window_breakdown(self, window: ProfileWindow) -> Dict[tuple, float]:
        """(role, layer) -> seconds for one window (caller holds the
        lock); stack classifications are memoized across windows."""
        memo = self._stack_layers
        if len(memo) > 8192:
            memo.clear()
        totals: Dict[tuple, float] = {}
        for role, per_stack in window.stacks.items():
            for stack, seconds in per_stack.items():
                layer = memo.get(stack)
                if layer is None:
                    layer = memo[stack] = classify_stack(stack)
                key = (role, layer)
                totals[key] = totals.get(key, 0.0) + seconds
        return totals

    def _role_of(self, thread_id: int) -> str:
        name = self._name_cache.get(thread_id)
        if name is None:
            name = next((thread.name for thread in threading.enumerate()
                         if thread.ident == thread_id), "")
            self._name_cache[thread_id] = name
        return _threads.role_of(thread_id, name)

    def _walk(self, leaf_frame) -> Stack:
        cache = self._frame_cache
        stack: List[tuple] = []
        append = stack.append
        frame = leaf_frame
        while frame is not None:
            code = frame.f_code
            entry = cache.get(code)
            if entry is None:
                entry = cache[code] = (code.co_name, code.co_filename,
                                       code.co_firstlineno)
            append(entry)
            frame = frame.f_back
        # Drop the thread-bootstrap scaffolding at the stack base:
        # pprof likewise reports user frames, not runtime plumbing.
        while stack and stack[-1][1].endswith("threading.py"):
            stack.pop()
        return tuple(stack)

    # ------------------------------------------------------------------
    # Reading (every reader resets the back-off)
    # ------------------------------------------------------------------
    def _live_windows(self) -> List[ProfileWindow]:
        """Ring + open window, oldest first (caller holds no lock)."""
        with self._lock:
            windows = list(self._ring)
            if self._window is not None:
                open_window = self._window
                open_window.duration = max(
                    0.0, time.monotonic() - open_window.started)
                windows.append(open_window)
            return windows

    def windows(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """Summaries of the most recent *last* windows (all by
        default), oldest first."""
        self.touch()
        windows = self._live_windows()
        if last is not None and last > 0:
            windows = windows[-last:]
        with self._lock:
            return [w.summary() for w in windows]

    def merged_stacks(self, last: Optional[int] = None
                      ) -> Dict[str, Dict[Stack, float]]:
        """One stack map folding the most recent *last* windows."""
        self.touch()
        windows = self._live_windows()
        if last is not None and last > 0:
            windows = windows[-last:]
        merged: Dict[str, Dict[Stack, float]] = {}
        with self._lock:
            for window in windows:
                for role, per_stack in window.stacks.items():
                    out = merged.setdefault(role, {})
                    for stack, seconds in per_stack.items():
                        out[stack] = out.get(stack, 0.0) + seconds
        return merged

    def _span(self, last: Optional[int]) -> tuple:
        windows = self._live_windows()
        if last is not None and last > 0:
            windows = windows[-last:]
        duration = sum(w.duration for w in windows)
        samples = sum(w.samples for w in windows)
        return duration, samples

    def attribution(self, last: Optional[int] = None,
                    top: int = 20) -> Dict[str, Any]:
        """The overhead-attribution report over recent windows."""
        duration, samples = self._span(last)
        report = attribution_report(self.merged_stacks(last),
                                    duration, samples, top=top)
        report["windows"] = min(len(self._ring)
                                + (1 if self._window else 0),
                                last or 10 ** 9)
        return report

    def report(self, top: int = 15) -> Dict[str, Any]:
        """The T4 panel payload over the kept windows: the top-*top*
        functions of the ``simulation`` role (every role but the
        profiler's own if no thread held it while they were sampled)
        ranked by self time — pprof's "flat" ordering — plus the call
        edges connecting them, which is what the dashboard's arc
        diagram draws."""
        stacks = self.merged_stacks()
        if "simulation" in stacks:
            stacks = {"simulation": stacks["simulation"]}
        else:
            stacks.pop("profiler", None)
        ranked = ranked_functions(stacks, top)
        kept = {frame for frame, _ in ranked}
        edges: Dict[tuple, float] = {}
        for per_stack in stacks.values():
            for stack, seconds in per_stack.items():
                for callee, caller in zip(stack, stack[1:]):
                    if caller in kept and callee in kept:
                        key = (caller, callee)
                        edges[key] = edges.get(key, 0.0) + seconds
        duration, samples = self._span(None)
        return {
            "duration": round(duration, 3),
            "samples": samples,
            "functions": [{"name": frame_label(frame),
                           "self_time": round(stats["self"], 4),
                           "total_time": round(stats["total"], 4)}
                          for frame, stats in ranked],
            "edges": [{"caller": frame_label(caller),
                       "callee": frame_label(callee),
                       "time": round(seconds, 4)}
                      for (caller, callee), seconds in sorted(
                          edges.items(), key=lambda kv: -kv[1])],
        }

    def summary(self, last: Optional[int] = None,
                top_functions: int = 40,
                top_stacks: int = 250) -> Dict[str, Any]:
        """The compact digest that rides the fleet control channel and
        the historian."""
        duration, samples = self._span(last)
        return make_summary(self.merged_stacks(last), duration, samples,
                            top_functions=top_functions,
                            top_stacks=top_stacks)

    def collapsed(self, last: Optional[int] = None,
                  role: Optional[str] = None) -> str:
        return collapsed_stacks(self.merged_stacks(last), role=role)

    def speedscope(self, last: Optional[int] = None,
                   name: str = "repro profile") -> Dict[str, Any]:
        return speedscope_document(self.merged_stacks(last), name=name)

    def _cumulative_layer_totals(self) -> Dict[tuple, float]:
        """Closed-window totals plus the open window (lock held)."""
        totals = dict(self._layer_totals)
        if self._window is not None:
            for key, sec in self._window_breakdown(
                    self._window).items():
                totals[key] = totals.get(key, 0.0) + sec
        return totals

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Cumulative seconds per (thread role, layer) since start."""
        with self._lock:
            totals: Dict[str, Dict[str, float]] = {}
            for (role, layer), seconds in \
                    self._cumulative_layer_totals().items():
                totals.setdefault(role, {})[layer] = round(seconds, 4)
            return totals

    def status(self) -> Dict[str, Any]:
        with self._lock:
            kept = len(self._ring) + (1 if self._window else 0)
        return {
            "running": self.running,
            "interval": self.interval,
            "effective_interval": round(self.effective_interval, 4),
            "backed_off": self.effective_interval > self.interval,
            "window_seconds": self.window_seconds,
            "ring": self._ring.maxlen,
            "windows_kept": kept,
            "windows_opened": self._windows_opened,
            "samples": self._samples_total,
            "loop": self.loop.status(),
        }

    # ------------------------------------------------------------------
    # Registry binding
    # ------------------------------------------------------------------
    def bind_registry(self, registry) -> None:
        """Publish ``rtm_profile_layer_seconds_total{layer=,thread=}``
        into *registry*: a pull-collector copies the cumulative layer
        totals at scrape time, so the family rides ``/metrics``, SSE,
        federation and alert rules with zero cost on the sample path."""
        if self._registry is registry:
            return
        counter = registry.counter(
            "rtm_profile_layer_seconds_total",
            "Sampled wall seconds attributed to each monitoring layer, "
            "by thread role.", ("layer", "thread"))

        def collect() -> None:
            with self._lock:
                totals = self._cumulative_layer_totals()
            for (role, layer), seconds in totals.items():
                counter.labels(layer, role).set(seconds)

        registry.add_collector(collect)
        self._registry = registry


# -- the profile plane -------------------------------------------------
def start_continuous_profiling(monitor, **config) -> ContinuousProfiler:
    """``Monitor.start_continuous_profiling``: start the monitor's one
    profiler, configured by *config* when this call creates it, and
    publish its cumulative layer attribution into the monitor's registry
    as ``rtm_profile_layer_seconds_total``."""
    if monitor.profiler is None:
        monitor.profiler = ContinuousProfiler(**config)
        monitor.profiler.bind_registry(monitor.metrics)
    monitor.profiler.start()
    return monitor.profiler


def _started(monitor) -> ContinuousProfiler:
    profiler = monitor.profiler
    if profiler is None:
        raise NotFound("profiler never started; POST /api/profile/start")
    return profiler


def _last_param(params: Dict[str, str]) -> Optional[int]:
    last = int_param(params, "last", 0)
    if last < 0:
        raise BadRequest("parameter 'last' must be >= 0")
    return last or None


def _report(server, params):
    top = int_param(params, "top", 15)
    profiler = server.monitor.profiler
    if profiler is None:
        return {"duration": 0.0, "samples": 0, "functions": [],
                "edges": [], "running": False,
                "continuous": {"running": False}}
    payload = profiler.report(top)
    payload["running"] = profiler.running
    payload["continuous"] = profiler.status()
    return payload


def _start(server, params):
    server.monitor.start_continuous_profiling()
    return {"profiling": True}


def _stop(server, params):
    profiler = server.monitor.profiler
    if profiler is not None:
        profiler.stop()
    return {"profiling": False}


def _windows(server, params):
    profiler = _started(server.monitor)
    return {"status": profiler.status(),
            "windows": profiler.windows(_last_param(params))}


def _attribution(server, params):
    profiler = _started(server.monitor)
    return profiler.attribution(_last_param(params),
                                top=int_param(params, "top", 20))


def _export(server, params):
    """The document itself: a request names no file to write."""
    profiler = _started(server.monitor)
    fmt = params.get("format", "speedscope")
    last = _last_param(params)
    if fmt == "collapsed":
        return Response(profiler.collapsed(last, role=params.get("role"))
                        .encode(), "text/plain; charset=utf-8")
    if fmt == "speedscope":
        return profiler.speedscope(last)
    if fmt == "summary":
        return profiler.summary(last)
    raise BadRequest(f"format must be 'collapsed', 'speedscope' or "
                     f"'summary', got {fmt!r}")


ROUTES = (
    ("GET", "/api/profile?top", _report, "simulation-thread report (T4)"),
    ("POST", "/api/profile/start", _start, "start the sampling profiler"),
    ("POST", "/api/profile/stop", _stop, "stop the sampling profiler"),
    ("GET", "/api/profile/windows?last", _windows,
     "the profiler's window ring"),
    ("GET", "/api/profile/attribution?last&top", _attribution,
     "overhead decomposed by layer"),
    ("GET", "/api/profile/export?format&last&role", _export,
     "collapsed / speedscope export"),
)
