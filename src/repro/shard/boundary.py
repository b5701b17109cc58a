"""The shard boundary: wire codec and proxy connections.

Two pieces turn an intra-process link into a cross-process one:

* :class:`BoundaryCodec` — translates the messages that can legally
  cross a shard boundary (kernel launches and completions on the
  driver↔CP link; :class:`~repro.gpu.mem.NetMsg` envelopes on the
  chiplet↔switch links) to and from JSON, each as its class name and
  its ``__slots__`` fields.  Ports travel as names and are resolved
  against the receiving shard's registry — every shard builds the
  *full* platform, so a dormant replica port exists for every name and
  acts as a stable address anchor.

* :class:`ShardConnection` — a :class:`DirectConnection` that *adopts*
  the locally-owned endpoints of a boundary edge.  Sends whose
  destination is local behave exactly as on the original link
  (reserved slot, latency, delivery event).  Sends to a non-adopted
  (remote) port are exported to the outbox with their arrival time
  ``now + latency``; the coordinator ferries them to the owning shard,
  whose runtime lands each at its arrival time through
  :meth:`ShardConnection.deliver_inbound`.
  Remote destinations have no slot to reserve, so backpressure is
  approximated with a per-window export quota per destination —
  senders denied by the quota are woken at the next window barrier.

The conservative window invariant makes all of this safe: a boundary
message sent at time *t* arrives at ``t + latency ≥ t + W``, and no
shard ever runs more than ``W`` past the global minimum next-event
time, so an injected arrival is never in the receiving shard's past.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

from ..akita.connection import DirectConnection
from ..akita.engine import Engine
from ..akita.hooks import HookPos
from ..akita.message import Msg
from ..akita.port import Port
from ..gpu.driver import Driver
from ..gpu.kernel import KernelState
from ..gpu.mem import DataReadyRsp, NetMsg, ReadReq, WriteDoneRsp, WriteReq
from ..gpu.protocol import KernelCompleteMsg, LaunchKernelMsg

__all__ = ["build_port_registry", "BoundaryCodec", "ShardConnection"]

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
#: The messages that may cross a shard boundary — kernel launches and
#: completions on the driver↔CP link, :class:`~repro.gpu.mem.NetMsg`
#: envelopes and their payloads on the chiplet↔switch links — by wire
#: name, with every ``__slots__`` field, base classes first.
_WIRE_TYPES: Dict[str, Tuple[type, Tuple[str, ...]]] = {
    cls.__name__: (cls, tuple(
        slot for klass in reversed(cls.__mro__)
        for slot in klass.__dict__.get("__slots__", ())))
    for cls in (LaunchKernelMsg, KernelCompleteMsg, NetMsg, ReadReq,
                WriteReq, DataReadyRsp, WriteDoneRsp)}


class BoundaryCodec:
    """Encode/decode a boundary-crossing message as its own fields.

    A message travels as its class name and its slots: a :class:`Port`
    as its name, resolved against the receiving shard's registry (so a
    launch's ``src``, the command processor's reply-to address, is the
    dormant driver replica there); a :class:`KernelState` as
    ``{"kernel": i}``, its index in the driver's launch list, which
    every shard enqueues identically; a nested message recursively;
    anything else as it is.  Decoding sets the slots on a bare instance,
    so every message keeps its ``id`` and the receiver mints none — the
    origin RDMA's request table is keyed by a request's id, which the
    remote response carries back in ``respond_to``.
    """

    def __init__(self, registry: Dict[str, Port], driver: Driver):
        self._registry = registry
        self._driver = driver

    def encode(self, msg: Msg) -> Dict[str, Any]:
        name = type(msg).__name__
        cls, slots = _WIRE_TYPES.get(name, (None, ()))
        if cls is not type(msg):
            raise TypeError(f"{name} cannot cross a shard boundary")
        wire: Dict[str, Any] = {"type": name}
        for slot in slots:
            value = getattr(msg, slot)
            if isinstance(value, Port):
                value = value.name
            elif isinstance(value, KernelState):
                # By identity; ValueError for a kernel the driver lacks.
                value = {"kernel": [k is value for k
                                    in self._driver.kernels].index(True)}
            elif isinstance(value, Msg):
                value = self.encode(value)
            wire[slot] = value
        return wire

    def decode(self, wire: Dict[str, Any]) -> Msg:
        cls, slots = _WIRE_TYPES.get(wire.get("type"), (None, ()))
        if cls is None:
            raise ValueError(
                f"unknown boundary message type {wire.get('type')!r}")
        msg = object.__new__(cls)
        for slot in slots:
            value = wire[slot]
            if isinstance(value, str):
                if value not in self._registry:
                    raise ValueError(f"unknown boundary port {value!r}")
                value = self._registry[value]
            elif isinstance(value, dict):
                value = (self._driver.kernels[value["kernel"]]
                         if "kernel" in value else self.decode(value))
            setattr(msg, slot, value)
        return msg


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
    #: enough to bound the parked backlog of inbound messages.
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
    def try_send(self, src: Port, msg: Msg) -> bool:
        # Only an export pays for the quota check.
        dst = msg.dst
        if dst is None or dst._connection is self:
            return super().try_send(src, msg)  # raises on no destination
        exported = self._exported_this_window.get(dst, 0)
        if exported >= dst.buf.capacity * self.QUOTA_FACTOR:
            if src not in self._blocked:
                self._blocked.append(src)
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
        self._exported_this_window[dst] = exported + 1
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
