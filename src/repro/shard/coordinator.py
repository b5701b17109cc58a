"""Conservative time-window coordinator for sharded simulation.

The :class:`ShardCoordinator` forks one ``repro.shard.worker`` per
shard from the run's one :class:`~repro.fleet.channel.Zygote` (closed
with the workers) on the same :class:`~repro.fleet.channel.WorkerChannel`
the fleet manager uses — each shard's channel feeds its own queue, which
the coordinator blocks on at the barrier — and drives the barrier loop
of conservative parallel discrete-event simulation:

1. Every shard reports its next pending event time at the barrier.
2. The coordinator grants the horizon ``T_min + W``, where ``T_min``
   is the minimum across *active* shards and ``W`` — the sync window —
   is the minimum cross-shard link latency from the config: no
   boundary message sent at or after ``T_min`` can arrive before the
   horizon, so every shard may run all events strictly before it.
3. Shards run their window and return their outbox of exported
   boundary messages; the coordinator routes each to the destination
   shard (by port *name* — see :func:`~repro.shard.partition.
   owner_of_name`) and injects them before granting the next window.

When exactly one shard is active the lockstep window would degrade to
ping-pong with nobody to synchronize against, so the coordinator
grants a long *solo* horizon instead; the worker runs it in chunks and
yields early on its first boundary export (see
:meth:`ShardRuntime.run_window`).

The coordinator is also the monitoring front door of a sharded run:
its gateway federates every shard's AkitaRTM server into one dashboard
— ``/metrics`` merges the shards' expositions under ``shard=`` labels
together with the coordinator's own barrier metrics, ``/api/progress``
sums per-kernel progress (each workgroup runs on exactly one shard),
``/api/buffers`` concatenates buffer rows.

:meth:`ShardCoordinator.abort` (any thread, or a signal handler: ``repro
run --shards N`` runs in :func:`~repro.akita.threads.guarded`) ends the
run at the next barrier as a hang does: shards stopped, counters kept.

A shard that dies, goes silent or closes its pipe raises
:class:`ShardWorkerError` naming the shard, its exit code (read after
the reap), the torn frames its decoder saw and the last lines of its
stderr.
"""

from __future__ import annotations

import dataclasses
import queue
import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.http import HTTPServerThread, Response, route_table
from ..fleet.channel import WorkerChannel, Zygote
from ..fleet.protocol import split_batches
from ..gpu.platform import GPUPlatformConfig
from ..metrics import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..metrics import MetricRegistry, expose, federate_sources, scrape
from ..workloads import Workload, workload_spec
from .partition import chiplet_owners, owner_of_name

__all__ = ["ShardCoordinator", "ShardGateway", "ShardResult",
           "ShardWorkerError"]

#: Wall-clock budget for any single worker response.  Windows are
#: milliseconds; even a solo fast-forward grant stays far inside this.
_DEFAULT_TIMEOUT = 120.0

#: Wall seconds a shard worker gets to exit before SIGKILL.
_REAP_GRACE = 2.0

#: Solo-mode grant length in cycles: long enough to amortize the
#: barrier away during single-shard phases (kernel setup, memcopies,
#: drain), short enough that the dashboard's picture of a solo shard
#: stays fresh.
_SOLO_GRANT_CYCLES = 100_000

_WINDOW_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5)


class ShardWorkerError(RuntimeError):
    """A shard worker died, reported an error, or stopped responding."""


@dataclasses.dataclass
class ShardResult:
    """Outcome of one sharded run."""

    completed: bool
    num_shards: int
    sim_time: float
    windows: int
    events: int
    instructions: int
    wgs: int
    mem_reqs: int
    boundary_messages: int
    wall_seconds: float
    #: Zygote + forks + full-platform build + init handshake (all shards)
    #: — the fixed cost a pool-style caller excludes from throughput
    #: (a shard set boots once, then runs a long simulation).
    boot_seconds: float
    dashboard_url: Optional[str]


class ShardCoordinator:
    """Drives N shard workers through conservative sync windows."""

    def __init__(self, config: GPUPlatformConfig, workload: Workload,
                 num_shards: int, *, monitor: bool = False,
                 metrics: bool = False, port: int = 0,
                 host: str = "127.0.0.1",
                 timeout: float = _DEFAULT_TIMEOUT):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.config = config
        self.workload = workload
        self.num_shards = num_shards
        self.owners = chiplet_owners(config.partition_chiplets(num_shards))
        self.monitor = monitor
        self.metrics = metrics
        self.timeout = timeout
        self._solo_seconds = _SOLO_GRANT_CYCLES / config.freq
        self._window_seconds = config.shard_window_cycles / config.freq
        #: The barrier families: the preamble of the federated
        #: exposition, which is why it is not the gateway transport's
        #: ``request_registry`` (see there).
        self.registry = MetricRegistry()
        self._m_window = self.registry.histogram(
            "rtm_shard_window_seconds",
            "Wall-clock duration of each sync-window round "
            "(grant to last shard's barrier arrival)",
            buckets=_WINDOW_BUCKETS)
        self._m_boundary = self.registry.counter(
            "rtm_shard_boundary_messages_total",
            "Boundary messages exported by each shard", ("shard",))
        self._m_barrier = self.registry.counter(
            "rtm_shard_barrier_wait_seconds_total",
            "Wall-clock time each shard spent finished at the barrier "
            "waiting for the slowest shard (smallest total = laggard)",
            ("shard",))
        self._zygote: Optional[Zygote] = None
        self._channels: List[WorkerChannel] = []
        #: One event queue per shard, fed by that shard's channel.
        self._sinks: List["queue.Queue"] = []
        self.shard_urls: Dict[int, Optional[str]] = {}
        self._last_progress: Dict[int, List[Dict[str, Any]]] = {}
        self._next_times: Dict[int, Optional[float]] = {}
        self._final_metrics: Dict[int, Optional[str]] = {}
        self._windows = 0
        self._aborted = False
        self._boundary_total = 0
        self._boot_seconds = 0.0
        self._gateway: Optional[ShardGateway] = None
        self._gateway_port = port
        self._gateway_host = host

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def dashboard_url(self) -> Optional[str]:
        return self._gateway.url if self._gateway is not None else None

    def run(self) -> ShardResult:
        """Spawn, synchronize to completion, collect, and report.

        The workers are reaped before return, but the federating
        gateway (``monitor=True``) stays up — serving cached final
        expositions and progress — until :meth:`close`.
        """
        start_wall = time.monotonic()
        try:
            self._spawn()
            self._boot_seconds = time.monotonic() - start_wall
            if self.monitor:
                self._gateway = ShardGateway(
                    self, host=self._gateway_host,
                    port=self._gateway_port)
                self._gateway.start()
            completed = self._barrier_loop()
            result = self._collect(completed, start_wall)
        except Exception:
            self.close()
            raise
        self._reap_workers()
        return result

    def abort(self) -> None:
        """End the run at the next barrier, as a hang would: safe from
        any thread and from a signal handler."""
        self._aborted = True

    def close(self) -> None:
        self._reap_workers()
        if self._gateway is not None:
            self._gateway.stop()
            self._gateway = None

    def _reap_workers(self) -> None:
        for channel in self._channels:
            channel.shutdown()
        for channel in self._channels:
            channel.reap(_REAP_GRACE)
        if self._zygote is not None:
            self._zygote.close()

    def _spawn(self) -> None:
        spec = workload_spec(self.workload)
        config_dict = dataclasses.asdict(self.config)
        self._sinks = [queue.Queue() for _ in range(self.num_shards)]
        self._zygote = Zygote("repro.shard.worker")
        self._channels = [
            WorkerChannel(self._zygote, [], sink, f"shard{k}")
            for k, sink in enumerate(self._sinks)]
        for k in range(self.num_shards):
            self._send(k, {"cmd": "init", "shard": k,
                           "num_shards": self.num_shards,
                           "config": config_dict, "workload": spec,
                           "monitor": self.monitor,
                           "metrics": self.metrics, "port": 0})
        for k in range(self.num_shards):
            _, ready = self._recv(k)
            if ready.get("event") != "shard-ready":
                raise ShardWorkerError(
                    f"shard {k}: expected shard-ready, got {ready!r}")
            self.shard_urls[k] = ready.get("url")
            self._next_times[k] = ready.get("next_time")

    # ------------------------------------------------------------------
    # Talking to one shard
    # ------------------------------------------------------------------
    def _send(self, k: int, payload: Dict[str, Any]) -> None:
        if not self._channels[k].send(payload):
            raise self._worker_error(k, "worker pipe closed",
                                     exited=True)

    def _recv(self, k: int) -> Tuple[float, Dict[str, Any]]:
        """Shard *k*'s next event with its arrival timestamp."""
        try:
            _, arrival, event = self._sinks[k].get(timeout=self.timeout)
        except queue.Empty:
            raise self._worker_error(
                k, f"no response within {self.timeout:.0f}s",
                exited=False) from None
        if event is None:
            raise self._worker_error(k, "worker exited unexpectedly",
                                     exited=True)
        if event.get("event") == "shard-error":
            raise ShardWorkerError(
                f"shard {k}: {event.get('op')} failed: "
                f"{event.get('error')}")
        return arrival, event

    def _worker_error(self, k: int, what: str,
                      exited: bool) -> ShardWorkerError:
        channel = self._channels[k]
        # An exit code exists only after the reap: poll() at stdout
        # EOF races the exit itself and can still say None.
        rc = (channel.reap(_REAP_GRACE) if exited
              else channel.process.poll())
        message = (f"shard {k}: {what} (rc={rc}, "
                   f"torn_frames={channel.decoder.errors})")
        tail = list(channel.stderr_tail)[-5:]
        if tail:
            message += "; stderr: " + " | ".join(tail)
        return ShardWorkerError(message)

    # ------------------------------------------------------------------
    # The barrier loop
    # ------------------------------------------------------------------
    def _barrier_loop(self) -> bool:
        """Window rounds until every shard is dry or :meth:`abort`;
        returns whether the hub's driver saw the workload through."""
        hub_done = False
        while True:
            if self._aborted:
                return False
            active = {k: t for k, t in self._next_times.items()
                      if t is not None}
            if not active:
                return hub_done
            t_min = min(active.values())
            solo = len(active) == 1
            grant = self._solo_seconds if solo else self._window_seconds
            horizon = t_min + grant
            # Only shards with work inside the horizon run; a dry
            # shard's clock is deliberately NOT advanced — injections
            # it receives later must not be time-warped forward by a
            # `max(deliver_at, now)` clamp.
            run_set = [k for k, t in active.items() if t < horizon]
            round_start = time.monotonic()
            for k in run_set:
                self._send(k, {
                    "cmd": "window", "horizon": horizon,
                    "chunk_seconds":
                        self._window_seconds if solo else None})
            inboxes: Dict[int, List[Dict[str, Any]]] = {}
            arrivals: Dict[int, float] = {}
            for k in run_set:
                hub_done = self._await_window(k, inboxes, arrivals,
                                              hub_done)
            t_last = max(arrivals.values())
            self._m_window.observe(t_last - round_start)
            for k, at in arrivals.items():
                self._m_barrier.labels(str(k)).inc(t_last - at)
            for owner, items in inboxes.items():
                for batch in split_batches(items):
                    self._send(owner, {"cmd": "inject", "msgs": batch})
                earliest = min(i["deliver_at"] for i in items)
                t = self._next_times[owner]
                self._next_times[owner] = (
                    earliest if t is None else min(t, earliest))
            self._windows += 1

    def _await_window(self, k: int,
                      inboxes: Dict[int, List[Dict[str, Any]]],
                      arrivals: Dict[int, float],
                      hub_done: bool) -> bool:
        while True:
            wall, event = self._recv(k)
            kind = event.get("event")
            if kind == "shard-outbox":
                msgs = event["msgs"]
                self._boundary_total += len(msgs)
                self._m_boundary.labels(str(k)).inc(len(msgs))
                for item in msgs:
                    owner = owner_of_name(item["msg"]["dst"],
                                          self.owners)
                    inboxes.setdefault(owner, []).append(item)
            elif kind == "window-done":
                arrivals[k] = wall
                self._next_times[k] = event.get("next_time")
                self._last_progress[k] = event.get("progress") or []
                if k == 0:
                    hub_done = bool(event.get("done"))
                return hub_done
            # Anything else (stray noise) is skipped.

    # ------------------------------------------------------------------
    # Shutdown & result
    # ------------------------------------------------------------------
    def _collect(self, completed: bool,
                 start_wall: float) -> ShardResult:
        for k in range(self.num_shards):
            self._send(k, {"cmd": "stop", "completed": completed})
        sim_time = 0.0
        events = instructions = wgs = mem_reqs = 0
        for k in range(self.num_shards):
            while True:
                _, event = self._recv(k)
                if event.get("event") == "shard-stopped":
                    break
            sim_time = max(sim_time, event["sim_time"])
            events += event.get("events", 0)
            instructions += event.get("instructions", 0)
            wgs += event.get("wgs", 0)
            mem_reqs += event.get("mem_reqs", 0)
            self._final_metrics[k] = event.get("metrics_text")
        return ShardResult(
            completed=completed, num_shards=self.num_shards,
            sim_time=sim_time, windows=self._windows, events=events,
            instructions=instructions, wgs=wgs, mem_reqs=mem_reqs,
            boundary_messages=self._boundary_total,
            wall_seconds=time.monotonic() - start_wall,
            boot_seconds=self._boot_seconds,
            dashboard_url=self.dashboard_url)

    # ------------------------------------------------------------------
    # Federation (gateway data plane)
    # ------------------------------------------------------------------
    def federated_metrics(self) -> str:
        """One exposition: coordinator families as preamble, every
        shard's families labelled ``shard="k"``.

        Final expositions (cached at ``stop``) win over a live scrape;
        a shard that is both unstopped and unreachable is recorded as
        a comment, never an error (see
        :func:`~repro.metrics.federation.federate_sources`).
        """
        return federate_sources(
            [(f"shard {k}", {"shard": str(k)},
              self._final_metrics.get(k), self.shard_urls.get(k))
             for k in range(self.num_shards)],
            preamble=expose(self.registry))

    def merged_progress(self) -> List[Dict[str, Any]]:
        """Global per-kernel progress: each workgroup executes on
        exactly one shard, so summing the shards' local counts is
        exact; ``total`` is the (replicated) global grid size."""
        merged: List[Dict[str, Any]] = []
        for progress in self._last_progress.values():
            for i, bar in enumerate(progress):
                if i >= len(merged):
                    merged.append({"id": i + 1, "name": bar["name"],
                                   "completed": 0, "ongoing": 0,
                                   "total": bar["total"]})
                merged[i]["completed"] += bar["completed"]
                merged[i]["ongoing"] += bar["ongoing"]
        for bar in merged:
            bar["not_started"] = max(
                0, bar["total"] - bar["completed"] - bar["ongoing"])
        return merged

    def merged_buffers(self, params: Dict[str, str]) -> \
            List[Dict[str, Any]]:
        """Concatenated buffer rows from every live shard dashboard,
        each tagged with its shard id."""
        import json as _json
        query = ""
        if params:
            from urllib.parse import urlencode
            query = "?" + urlencode(params)
        rows: List[Dict[str, Any]] = []
        for k in range(self.num_shards):
            url = self.shard_urls.get(k)
            if not url:
                continue
            try:
                payload = _json.loads(scrape(url, "/api/buffers" + query))
            except (OSError, ValueError):
                continue
            for row in payload.get("buffers", []):
                row["shard"] = k
                rows.append(row)
        return rows

    def shard_status(self) -> Dict[str, Any]:
        return {
            "num_shards": self.num_shards,
            "windows": self._windows,
            "shards": [
                {"shard": k, "url": self.shard_urls.get(k),
                 "next_time": self._next_times.get(k)}
                for k in range(self.num_shards)],
        }


# ----------------------------------------------------------------------
# Gateway
# ----------------------------------------------------------------------
#: ``(method, "path?parameters", ShardGateway method, purpose)``
ROUTES = (
    ("GET", "/metrics", "_prometheus", "each shard's series, shard= labelled"),
    ("GET", "/api/progress", "_progress", "per-kernel progress, summed"),
    ("GET", "/api/buffers?sort&top", "_buffers", "every shard's buffer rows"),
    ("GET", "/api/shards", "_shards", "shard URLs, next times, windows"),
)


class ShardGateway(HTTPServerThread):
    """The single pane of glass over a sharded run's dashboards."""

    thread_name = "rtm-shard-gateway"

    def __init__(self, coordinator: ShardCoordinator,
                 host: str = "127.0.0.1", port: int = 0):
        self.coordinator = coordinator
        super().__init__(route_table(ROUTES, type(self)), host=host,
                         port=port)

    def _prometheus(self, params):
        return Response(self.coordinator.federated_metrics().encode(),
                        _PROM_CONTENT_TYPE)

    def _progress(self, params):
        return {"progress": self.coordinator.merged_progress()}

    def _buffers(self, params):
        return {"buffers": self.coordinator.merged_buffers(params)}

    def _shards(self, params):
        return self.coordinator.shard_status()

