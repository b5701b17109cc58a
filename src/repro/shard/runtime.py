"""Per-process shard runtime: build, prune, rewire, run in windows.

Every shard process builds the **full** platform from the same config
and enqueues the same workload, so component names, port names and the
kernel launch list are identical everywhere.  It then

1. captures the name → port registry (the address book boundary
   messages are resolved against),
2. *prunes*: deregisters every component another shard owns from the
   monitored simulation — the objects survive as dormant replicas
   (never ticked, never seeded) whose ports anchor wire addresses,
3. *rewires*: every platform link with some, but not all, of its
   ports on components this shard still registers is a boundary edge;
   it is replaced by a :class:`~repro.shard.boundary.ShardConnection`
   of the same latency that adopts the owned ports and exports sends
   to the others.  The shortest such link is the shard's sync
   :attr:`~ShardRuntime.window`.

Only shard 0 seeds the driver's first tick; on every other shard the
driver replica holds the enqueued workload (for the kernel index
space) but never runs.  Execution then proceeds in coordinator-granted
windows: run every event strictly before the horizon, hand the outbox
(exported boundary messages) back, receive injections, repeat.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..akita.event import Event
from ..akita.message import Msg
from ..gpu.cu import ComputeUnit
from ..gpu.platform import GPUPlatform, GPUPlatformConfig
from ..workloads import Workload
from .boundary import BoundaryCodec, ShardConnection, build_port_registry
from .partition import chiplet_owners, owner_of_name

__all__ = ["ShardRuntime"]


class _InjectionEvent(Event):
    """Lands one ferried boundary message at its arrival time.

    Secondary, like a local :class:`DeliveryEvent`: it orders against
    same-time ticks by insertion, as the local delivery would have.
    """

    __slots__ = ("msg",)

    def __init__(self, time: float, runtime: "ShardRuntime", msg: Msg):
        super().__init__(time, runtime, secondary=True)
        self.msg = msg


class ShardRuntime:
    """One shard's half-open platform plus its windowed execution."""

    def __init__(self, config: GPUPlatformConfig, workload: Workload,
                 shard: int, num_shards: int):
        self.shard = shard
        self.owners = chiplet_owners(config.num_chiplets, num_shards)
        self.platform = GPUPlatform(config, name=f"shard{shard}")
        self.simulation = self.platform.simulation
        self.engine = self.platform.engine
        self.workload_run = workload.enqueue(self.platform.driver)
        # The registry must see the full component set — see
        # build_port_registry.
        self.registry = build_port_registry(self.simulation)
        self.codec = BoundaryCodec(self.registry, self.platform.driver)
        self._outbox: List[Dict[str, Any]] = []
        self._shard_conns: List[ShardConnection] = []
        if num_shards > 1:
            self._prune()
            self._rewire()
        #: The latency of this shard's shortest boundary link (``None``
        #: with none): no message it exports arrives sooner.
        self.window: Optional[float] = min(
            (conn.latency for conn in self._shard_conns), default=None)
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
        # Ownership is registry membership: _prune's own decision.
        owned = set(self.simulation.component_names)
        for link in self.simulation.connections:
            ports = link.ports
            local = [port for port in ports if port.component.name in owned]
            if 0 < len(local) < len(ports):
                conn = ShardConnection("Shard" + link.name, self.engine,
                                       link.latency, self._export)
                for port in local:
                    conn.adopt(port)
                self._shard_conns.append(conn)
                self.simulation.register_connection(conn)

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
        """Schedule ferried boundary messages for local delivery at
        their arrival times, clamped to now: the window invariant makes
        past arrivals impossible, but a same-instant clamp keeps the
        engine's no-past-events contract airtight against float
        rounding."""
        engine = self.engine
        for item in items:
            msg = self.codec.decode(item["msg"])
            at = max(item["deliver_at"], engine.now)
            engine.schedule(_InjectionEvent(at, self, msg))

    def handle(self, event: _InjectionEvent) -> None:
        # Every boundary destination is a port this shard adopted
        # (_rewire): its connection parks a message that finds the
        # buffer full until the component frees a slot.
        msg = event.msg
        msg.dst.connection.deliver_inbound(msg)

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
