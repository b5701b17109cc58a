"""Per-process shard runtime: build, prune, rewire, run in windows.

Every shard process builds the **full** platform from the same config
and enqueues the same workload, so component names, port names and the
kernel launch list are identical everywhere.  It then

1. captures the name → port registry (the address book boundary
   messages are resolved against),
2. *prunes*: deregisters every component another shard owns from the
   monitored simulation — the objects survive as dormant replicas
   (never ticked, never seeded) whose ports anchor wire addresses,
3. *rewires*: replaces each boundary edge's connection with a
   :class:`~repro.shard.boundary.ShardConnection` that adopts only the
   locally-owned endpoints and exports sends to remote ones.

Only shard 0 seeds the driver's first tick; on every other shard the
driver replica holds the enqueued workload (for the kernel index
space) but never runs.  Execution then proceeds in coordinator-granted
windows: run every event strictly before the horizon, hand the outbox
(exported boundary messages) back, receive injections, repeat.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..akita.connection import DirectConnection
from ..gpu.cu import ComputeUnit
from ..gpu.platform import GPUPlatform, GPUPlatformConfig
from ..workloads import Workload
from .boundary import (
    BoundaryCodec,
    BoundaryInjector,
    ShardConnection,
    build_port_registry,
)
from .partition import chiplet_owners, owner_of_name

__all__ = ["ShardRuntime"]


class ShardRuntime:
    """One shard's half-open platform plus its windowed execution."""

    def __init__(self, config: GPUPlatformConfig, workload: Workload,
                 shard: int, num_shards: int):
        self.config = config
        self.shard = shard
        self.num_shards = num_shards
        self.blocks = config.partition_chiplets(num_shards)
        self.owners = chiplet_owners(self.blocks)
        self.platform = GPUPlatform(config, name=f"shard{shard}")
        self.simulation = self.platform.simulation
        self.engine = self.platform.engine
        self.workload_run = workload.enqueue(self.platform.driver)
        # The registry must see the full component set — see
        # build_port_registry.
        self.registry = build_port_registry(self.simulation)
        self.codec = BoundaryCodec(self.registry, self.platform.driver)
        self.injector = BoundaryInjector(self.engine)
        self._outbox: List[Dict[str, Any]] = []
        self._shard_conns: List[ShardConnection] = []
        if num_shards > 1:
            self._prune()
            self._rewire()
        if shard == 0:
            # Only the hub's driver runs; dormant replicas keep their
            # queued commands forever un-ticked.
            self.platform.start()

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def owns(self, name: str) -> bool:
        return owner_of_name(name, self.owners) == self.shard

    def _prune(self) -> None:
        for name in self.simulation.component_names:
            if not self.owns(name):
                self.simulation.deregister_component(name)

    def _rewire(self) -> None:
        cfg = self.config
        platform = self.platform

        # Driver ↔ command processors: one shared link whose endpoints
        # span shards.  Adopt the locally-owned ones.
        driver_conn = self._new_conn(
            "ShardDriverConn", cfg.driver_conn_latency_cycles / cfg.freq)
        if self.shard == 0:
            driver_conn.adopt(platform.driver.gpu_port)
        for chiplet in platform.chiplets:
            if self.owners[chiplet.id] == self.shard:
                driver_conn.adopt(chiplet.command_processor.driver_port)

        # Chiplet ↔ switch: per-chiplet point-to-point links.  A link
        # whose two endpoints are both local (chiplet owned by the hub)
        # keeps its original DirectConnection; a link with exactly one
        # local endpoint gets a proxy adopting that endpoint; a fully
        # remote link needs nothing here.
        for chiplet in platform.chiplets:
            owner = self.owners[chiplet.id]
            if owner == 0 and self.shard == 0:
                continue  # both endpoints local to the hub
            link_latency = cfg.net_link_latency_cycles / cfg.freq
            if self.shard == 0:
                conn = self._new_conn(
                    f"ShardNetLink[{chiplet.id}]", link_latency)
                conn.adopt(platform.switch.switch_port(chiplet.id))
            elif owner == self.shard:
                conn = self._new_conn(
                    f"ShardNetLink[{chiplet.id}]", link_latency)
                conn.adopt(chiplet.rdma.net_port)

    def _new_conn(self, name: str, latency: float) -> ShardConnection:
        conn = ShardConnection(name, self.engine, latency, self._export)
        self._shard_conns.append(conn)
        self.simulation.register_connection(conn)
        return conn

    def _export(self, msg, deliver_at: float) -> None:
        self._outbox.append({"deliver_at": deliver_at,
                             "msg": self.codec.encode(msg)})

    # ------------------------------------------------------------------
    # Window protocol
    # ------------------------------------------------------------------
    @property
    def next_time(self) -> Optional[float]:
        return self.engine.next_event_time

    @property
    def done(self) -> bool:
        """Workload completion, meaningful on the hub shard only (the
        driver replica elsewhere never processes its queue)."""
        return self.platform.driver.all_done if self.shard == 0 else False

    def inject(self, items: List[Dict[str, Any]]) -> None:
        """Schedule ferried boundary messages for local delivery."""
        for item in items:
            self.injector.inject(self.codec.decode(item["msg"]),
                                 item["deliver_at"])

    def run_window(self, horizon: float,
                   chunk_seconds: Optional[float] = None) -> int:
        """Run every event strictly before *horizon*.

        With *chunk_seconds* set (solo fast-forward grants), execution
        stops within one chunk of the first boundary export: a long
        horizon is only safe while nothing crosses the boundary, so
        the first export ends the shard's claim to it.  The coordinator
        passes the sync window W as the chunk, which bounds the
        overshoot past an export at ``s`` to events before ``s + W`` —
        inside the horizon any reaction to the export could demand.
        """
        for conn in self._shard_conns:
            conn.begin_window()
        engine = self.engine
        events = 0
        if chunk_seconds is None or not self._shard_conns:
            return engine.run_window(horizon)
        while engine.now < horizon:
            nxt = engine.next_event_time
            if nxt is None or nxt >= horizon:
                # Nothing (relevant) left: jump the clock to the
                # horizon in one step instead of chunking empty time.
                events += engine.run_window(horizon)
                break
            events += engine.run_window(min(horizon,
                                            nxt + chunk_seconds))
            if self._outbox:
                break
        return events

    def drain_outbox(self) -> List[Dict[str, Any]]:
        outbox, self._outbox = self._outbox, []
        return outbox

    def stop(self, completed: bool) -> None:
        """Global termination: the coordinator decided the whole run is
        over (every shard dry)."""
        if completed:
            self.simulation.mark_completed()
        self.engine.finish_windows()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Timing-independent committed work on this shard's owned
        components — the anchors of the sharded-vs-monolithic
        equivalence check (instruction totals must match exactly)."""
        instructions = wgs = mem_reqs = 0
        for comp in self.simulation.components:
            if isinstance(comp, ComputeUnit):
                instructions += comp.num_instructions
                wgs += comp.num_wgs_completed
                mem_reqs += comp.num_mem_reqs
        return {"instructions": instructions, "wgs": wgs,
                "mem_reqs": mem_reqs}

    def progress(self) -> List[Dict[str, Any]]:
        """Per-kernel progress of this shard's local share.  Each
        workgroup executes on exactly one shard, so summing
        ``completed``/``ongoing`` across shards is exact; ``total`` is
        the global grid size (identical replica everywhere)."""
        return [{"name": k.descriptor.name, "completed": k.completed,
                 "ongoing": k.ongoing, "total": k.total}
                for k in self.platform.driver.kernels]
