"""The shard boundary: wire codec, proxy connections, and injection.

Three pieces turn an intra-process link into a cross-process one:

* :class:`BoundaryCodec` — translates the messages that can legally
  cross a shard boundary (kernel launches and completions on the
  driver↔CP link; :class:`~repro.gpu.mem.NetMsg` envelopes on the
  chiplet↔switch links) to and from JSON.  Ports travel as names and
  are resolved against the receiving shard's registry — every shard
  builds the *full* platform, so a dormant replica port exists for
  every name and acts as a stable address anchor.

* :class:`ShardConnection` — a :class:`DirectConnection` that *adopts*
  the locally-owned endpoints of a boundary edge.  Sends whose
  destination is local behave exactly as on the original link
  (reserved slot, latency, delivery event).  Sends to a non-adopted
  (remote) port are exported to the outbox with their arrival time
  ``now + latency``; the coordinator ferries them to the owning shard.
  Remote destinations have no slot to reserve, so backpressure is
  approximated with a per-window export quota per destination —
  senders denied by the quota are woken at the next window barrier.

* :class:`BoundaryInjector` — schedules a decoded inbound message for
  delivery at its arrival time via an engine event, so cross-shard
  deliveries interleave with local events in timestamp order exactly
  like a local :class:`DeliveryEvent` would.

The conservative window invariant makes all of this safe: a boundary
message sent at time *t* arrives at ``t + latency ≥ t + W``, and no
shard ever runs more than ``W`` past the global minimum next-event
time, so an injected arrival is never in the receiving shard's past.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from ..akita.connection import DirectConnection
from ..akita.engine import Engine
from ..akita.event import Event
from ..akita.hooks import HookPos
from ..akita.message import Msg
from ..akita.port import Port
from ..gpu.driver import Driver
from ..gpu.mem import (
    DataReadyRsp,
    MemReq,
    MemRsp,
    NetMsg,
    ReadReq,
    WriteDoneRsp,
    WriteReq,
)
from ..gpu.protocol import KernelCompleteMsg, LaunchKernelMsg

__all__ = ["build_port_registry", "BoundaryCodec", "ShardConnection",
           "BoundaryInjector"]

_PORT_SEND = HookPos.PORT_SEND.index


def build_port_registry(simulation) -> Dict[str, Port]:
    """Name → port map over *every* component of *simulation*.

    Must be captured **before** pruning: boundary messages address
    ports of components the local shard does not own (the dormant
    replicas), and those must stay resolvable after the components
    leave the monitored registry.
    """
    registry: Dict[str, Port] = {}
    for comp in simulation.components:
        for port in comp.ports:
            registry[port.name] = port
    return registry


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class BoundaryCodec:
    """Encode/decode the boundary-crossing message vocabulary.

    Identity rules the codec must preserve:

    * A :class:`MemReq` keeps its ``id`` across the wire — the origin
      RDMA's outstanding-request table is keyed by it, and the remote
      side's eventual response carries it back in ``respond_to``.
    * ``LaunchKernelMsg.kernel`` travels as an *index* into the
      driver's launch list.  Every shard enqueues the identical
      workload into its (possibly dormant) driver replica, so the
      index resolves to the congruent local :class:`KernelState`.
    * ``src`` travels as a port name: the command processor records
      ``msg.src`` of a launch as its reply-to address, and routing the
      completion back over the wire requires that address to be the
      (dormant) driver port replica, not ``None``.
    """

    def __init__(self, registry: Dict[str, Port], driver: Driver):
        self._registry = registry
        self._driver = driver

    # -- encode ---------------------------------------------------------
    def encode(self, msg: Msg) -> Dict[str, Any]:
        if isinstance(msg, LaunchKernelMsg):
            return {
                "kind": "launch",
                "dst": msg.dst.name,
                "src": msg.src.name if msg.src is not None else None,
                "kernel": self._kernel_index(msg),
                "wg_ids": list(msg.wg_ids),
            }
        if isinstance(msg, KernelCompleteMsg):
            return {
                "kind": "kernel_complete",
                "dst": msg.dst.name,
                "src": msg.src.name if msg.src is not None else None,
                "launch_id": msg.launch_id,
            }
        if isinstance(msg, NetMsg):
            return {
                "kind": "net",
                "dst": msg.dst.name,
                "src": msg.src.name if msg.src is not None else None,
                "final_dst": msg.final_dst.name,
                "origin": msg.origin.name,
                "payload": self._encode_payload(msg.payload),
            }
        raise TypeError(
            f"{type(msg).__name__} cannot cross a shard boundary")

    def _kernel_index(self, msg: LaunchKernelMsg) -> int:
        for i, state in enumerate(self._driver.kernels):
            if state is msg.kernel:
                return i
        raise ValueError(
            f"launch references a kernel unknown to the driver: {msg!r}")

    @staticmethod
    def _encode_payload(payload: Msg) -> Dict[str, Any]:
        if isinstance(payload, MemReq):
            kind = "write" if isinstance(payload, WriteReq) else "read"
            return {"kind": kind, "id": payload.id,
                    "address": payload.address,
                    "access_bytes": payload.access_bytes,
                    "pid": payload.pid}
        if isinstance(payload, DataReadyRsp):
            return {"kind": "data_ready", "respond_to": payload.respond_to,
                    "size_bytes": payload.size_bytes}
        if isinstance(payload, WriteDoneRsp):
            return {"kind": "write_done", "respond_to": payload.respond_to}
        raise TypeError(
            f"{type(payload).__name__} cannot cross the network boundary")

    # -- decode ---------------------------------------------------------
    def decode(self, wire: Dict[str, Any]) -> Msg:
        kind = wire["kind"]
        dst = self._port(wire["dst"])
        if kind == "launch":
            kernel = self._driver.kernels[wire["kernel"]]
            msg: Msg = LaunchKernelMsg(dst, kernel, list(wire["wg_ids"]))
        elif kind == "kernel_complete":
            msg = KernelCompleteMsg(dst, wire["launch_id"])
        elif kind == "net":
            payload = self._decode_payload(wire["payload"])
            msg = NetMsg(dst, payload, self._port(wire["final_dst"]),
                         self._port(wire["origin"]))
        else:
            raise ValueError(f"unknown boundary message kind {kind!r}")
        src = wire.get("src")
        if src is not None:
            msg.src = self._port(src)
        return msg

    def _decode_payload(self, wire: Dict[str, Any]) -> Msg:
        kind = wire["kind"]
        if kind in ("read", "write"):
            cls = WriteReq if kind == "write" else ReadReq
            payload = cls(None, wire["address"], wire["access_bytes"],
                          wire["pid"])
            # Preserve the origin shard's request id: the response the
            # remote side builds answers *this* id, and the origin's
            # transaction table is keyed by it.
            payload.id = wire["id"]
            return payload
        if kind == "data_ready":
            return DataReadyRsp(None, wire["respond_to"],
                                data_bytes=wire["size_bytes"] - 16)
        if kind == "write_done":
            return WriteDoneRsp(None, wire["respond_to"])
        raise ValueError(f"unknown payload kind {kind!r}")

    def _port(self, name: str) -> Port:
        try:
            return self._registry[name]
        except KeyError:
            raise ValueError(f"unknown boundary port {name!r}") from None


# ----------------------------------------------------------------------
# Proxy connection
# ----------------------------------------------------------------------
class ShardConnection(DirectConnection):
    """Boundary edge of a sharded platform.

    Locally-owned endpoints of the original link are *adopted*
    (rebound to this connection); sends between adopted ports follow
    the inherited fixed-latency path unchanged.  Sends addressed to a
    port that was **not** adopted are exports: the message is handed
    to *export* together with its arrival time and the coordinator
    ferries it to the destination's owner.

    A remote destination's buffer lives in another process, so slot
    reservation is impossible.  Instead each remote destination gets a
    per-window export quota (a small multiple of its buffer capacity);
    the receiving side absorbs any short-term excess by parking
    messages until their destination frees a slot.  Senders denied by an
    exhausted quota are remembered and woken at the next window start.
    """

    #: Export quota per remote destination per window, as a multiple of
    #: the destination buffer's capacity.  Large enough never to stall
    #: a well-matched producer/consumer pair inside one window, small
    #: enough to bound the injector's retry backlog.
    QUOTA_FACTOR = 4

    def __init__(self, name: str, engine: Engine, latency: float,
                 export: Callable[[Msg, float], None]):
        super().__init__(name, engine, latency)
        self._export = export
        self._exported_this_window: Dict[Port, int] = {}
        self._blocked: List[Port] = []
        #: Inbound messages waiting for a free slot at their
        #: destination buffer, per port.  Local sends reserve their
        #: slot at send time and never face this; ferried messages
        #: have no reservation, so they wait their turn and never take
        #: a slot reserved for a local message still in flight.
        self._parked: Dict[Port, Deque[Msg]] = {}
        self.exported_count = 0
        self.parked_count = 0

    def adopt(self, port: Port) -> None:
        """Take over *port* from the connection it was built with."""
        port.replace_connection(self)
        self._ports.append(port)

    # -- sending --------------------------------------------------------
    def can_send(self, src: Port, msg: Msg) -> bool:
        dst = msg.dst
        if dst is None or dst._connection is self:
            return super().can_send(src, msg)  # raises on no destination
        quota = dst.buf.capacity * self.QUOTA_FACTOR
        if self._exported_this_window.get(dst, 0) >= quota:
            if src not in self._blocked:
                self._blocked.append(src)
            return False
        return True

    def try_send(self, src: Port, msg: Msg) -> bool:
        # Only an export pays for the quota check.
        dst = msg.dst
        if dst is None or dst._connection is self:
            return super().try_send(src, msg)
        if not self.can_send(src, msg):
            return False
        msg.src = src
        now = self._engine._now
        comp = src.component
        if comp is not None and comp._chains[_PORT_SEND]:
            for hook in comp._chains[_PORT_SEND]:
                hook(src, now, msg)
        msg.send_time = now
        self.msg_count += 1
        self.exported_count += 1
        self._exported_this_window[dst] = \
            self._exported_this_window.get(dst, 0) + 1
        self._export(msg, now + self._latency)
        return True

    # -- inbound delivery -----------------------------------------------
    def deliver_inbound(self, msg: Msg) -> bool:
        """Land a ferried message at its (adopted) destination port.

        A buffer with no free slot (:attr:`Buffer.free_slots`, which
        counts the slots reserved for local messages in flight) parks
        the message instead of failing: the next
        :meth:`notify_available` for that port — fired whenever its
        component consumes a message — drains the parked queue in FIFO
        order before any blocked sender gets the slot.  This mirrors
        the reservation local sends enjoy without retry-polling the
        buffer every cycle (which turns a deep backlog into a
        quadratic event storm).
        """
        dst = msg.dst
        parked = self._parked.get(dst)
        if not parked and dst.buf.free_slots > 0:
            dst.deliver(msg)
            return True
        if parked is None:
            parked = self._parked[dst] = deque()
        parked.append(msg)
        self.parked_count += 1
        return False

    def notify_available(self, port: Port) -> None:
        parked = self._parked.get(port)
        if parked:
            while parked and port.buf.free_slots > 0:
                port.deliver(parked.popleft())
            if parked:
                return  # still full: the slot went to a parked message
        super().notify_available(port)

    # -- window barrier -------------------------------------------------
    def begin_window(self) -> None:
        """Reset export quotas and wake quota-blocked senders."""
        self._exported_this_window.clear()
        if not self._blocked:
            return
        blocked, self._blocked = self._blocked, []
        for port in blocked:
            if port.component is not None:
                port.component.notify_available(port)


# ----------------------------------------------------------------------
# Inbound injection
# ----------------------------------------------------------------------
class _InjectionEvent(Event):
    """Lands one ferried boundary message at its arrival time.

    Secondary, like :class:`DeliveryEvent`: at equal timestamps the
    receiving component's primary tick runs first, matching the
    ordering a local delivery would have had.
    """

    __slots__ = ("msg",)

    def __init__(self, time: float, injector: "BoundaryInjector",
                 msg: Msg):
        super().__init__(time, injector, secondary=True)
        self.msg = msg


class BoundaryInjector:
    """Delivers coordinator-ferried messages into local ports."""

    def __init__(self, engine: Engine):
        self._engine = engine
        self.injected = 0

    def inject(self, msg: Msg, deliver_at: float) -> None:
        """Schedule *msg* for delivery at *deliver_at* (clamped to now;
        the window invariant makes past arrivals impossible, but a
        same-instant clamp keeps the engine's no-past-events contract
        airtight against float rounding)."""
        at = max(deliver_at, self._engine._now)
        self._engine.schedule(_InjectionEvent(at, self, msg))

    def handle(self, event: _InjectionEvent) -> None:
        # Every boundary destination is a port this shard adopted
        # (ShardRuntime._rewire): its connection parks a message that
        # finds the buffer full until the component frees a slot.
        msg = event.msg
        msg.dst.connection.deliver_inbound(msg)
        self.injected += 1
