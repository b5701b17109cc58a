"""Connections move messages between ports with latency and backpressure.

:class:`DirectConnection` models a fixed-latency point-to-point (or small
fan-in) link.  A send reserves a slot on the destination buffer itself
(:attr:`~repro.akita.buffer.Buffer.free_slots` counts it), so an
in-flight message always has a place to land; combined with FIFO event
ordering this gives per-(src,dst) in-order delivery.

When a component retrieves a message from one of its ports, every
component plugged into the same connection is woken
(:meth:`notify_available`) so sleeping senders retry.  Spurious wakeups
cost one no-progress tick; lost wakeups would hang the simulation, so we
err on the side of waking.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import List, Protocol, runtime_checkable

from .engine import Engine
from .errors import BufferError_, ConfigurationError, PortError
from .event import Event
from .hooks import Hookable, HookCtx, HookPos
from .message import Msg
from .port import Port

_CONN_TRANSFER = HookPos.CONN_TRANSFER.index
_PORT_DELIVER = HookPos.PORT_DELIVER.index
_PORT_SEND = HookPos.PORT_SEND.index
_new = object.__new__


@runtime_checkable
class Connection(Protocol):
    """Anything that can transport messages between plugged-in ports."""

    def plug_in(self, port: Port) -> None: ...

    def try_send(self, src: Port, msg: Msg) -> bool: ...

    def notify_available(self, port: Port) -> None: ...


@dataclass
class Transfer:
    """The mutable delivery plan handed to ``CONN_TRANSFER`` hooks.

    A hook (e.g. a fault injector) may set :attr:`drop` to make the
    message vanish in transit, or move :attr:`deliver_at` later to model
    link-level delay.  The plan is constructed only when a hook is
    subscribed to ``CONN_TRANSFER``, so the un-faulted send path pays
    nothing — ``CONN_DROP`` observers (the tracer) included: nothing
    can be dropped while nobody can ask for it.
    """

    msg: Msg
    deliver_at: float
    drop: bool = False


class DeliveryEvent(Event):
    """Lands one in-flight message at its arrival time.

    The handler is the connection itself.  A dedicated event class
    (rather than a per-send closure wrapped in a CallbackEvent) keeps
    the event queue picklable for checkpoint/restore and saves a
    closure allocation per message on the hot path.
    """

    __slots__ = ("msg",)

    def __init__(self, time: float, connection: "DirectConnection",
                 msg: Msg):
        # Slots filled directly, uncoerced: *time* is the connection's
        # own clock arithmetic.
        self.time = time
        self.handler = connection
        self.secondary = True
        self.msg = msg


class DirectConnection(Hookable):
    """Fixed-latency link between a set of ports.

    Parameters
    ----------
    name:
        Hierarchical name, for diagnostics.
    engine:
        Engine used to schedule delivery events.
    latency:
        Transfer latency in (virtual) seconds.  Zero-latency links
        deliver via a secondary event in the same timestamp.
    """

    def __init__(self, name: str, engine: Engine, latency: float = 1e-9):
        super().__init__()
        self.name = name
        self._engine = engine
        self._latency = float(latency)
        if not self._latency >= 0:  # or send() would push into the past
            raise ConfigurationError(
                f"connection {name!r} needs latency >= 0, got {latency}")
        self._ports: List[Port] = []
        self.msg_count = 0  # total messages transported (observable)
        self.dropped_count = 0  # messages lost to injected faults

    @property
    def latency(self) -> float:
        return self._latency

    @property
    def ports(self) -> List[Port]:
        return list(self._ports)

    def plug_in(self, port: Port) -> None:
        """Attach *port* to this connection."""
        port.set_connection(self)
        self._ports.append(port)

    def try_send(self, src: Port, msg: Msg) -> bool:
        """The one door of :meth:`Port.send`: refuse *msg* (``False``,
        nothing changed), or set ``msg.src``, fire the sender's
        ``PORT_SEND`` hooks, reserve the slot and schedule delivery."""
        dst = msg.dst
        if dst is None or dst._connection is not self:
            raise PortError(
                f"message {msg!r} has no destination on connection "
                f"{self.name}")
        # Buffer.free_slots > 0, on the buffer's own fields: the one
        # hot copy of the admission rule.
        buf = dst.buf
        if buf._pinned or buf._capacity - len(buf._items) - buf._reserved <= 0:
            return False
        msg.src = src
        engine = self._engine
        now = engine._now
        # Hook before the transfer: a zero-latency link may deliver (or
        # drop) inline, and the trace must show the send first.
        comp = src.component
        if comp is not None and comp._chains[_PORT_SEND]:
            for hook in comp._chains[_PORT_SEND]:
                hook(src, now, msg)
        buf._reserved += 1
        msg.send_time = now
        self.msg_count += 1
        deliver_at = now + self._latency

        if self._chains[_CONN_TRANSFER]:
            transfer = Transfer(msg, deliver_at)
            self.invoke_hooks(HookCtx(self, now,
                                      HookPos.CONN_TRANSFER, transfer))
            if transfer.drop:
                # The message vanishes in transit: release the reserved
                # slot and wake senders that were blocked on it.  The
                # sender still counted it as sent — exactly the view a
                # component has of a lossy link.
                buf._reserved -= 1
                self.dropped_count += 1
                self.invoke_hooks(HookCtx(self, now,
                                          HookPos.CONN_DROP, transfer))
                self.notify_available(dst)
                return True
            deliver_at = max(transfer.deliver_at, now)

        # DeliveryEvent(deliver_at, self, msg) minus its __init__ frame;
        # deliver_at >= now on both paths: Engine.schedule's own push.
        event = _new(DeliveryEvent)
        event.time = deliver_at
        event.handler = self
        event.secondary = True
        event.msg = msg
        queue = engine._queue
        heappush(queue._heap, (deliver_at, True, next(queue._seq), event))
        return True

    def handle(self, event: DeliveryEvent) -> None:
        """Deliver the event's message (engine-facing Handler API): give
        back its reserved slot and land it, :meth:`Port.deliver` in this
        frame."""
        msg = event.msg
        dst = msg.dst
        buf = dst.buf
        buf._reserved -= 1
        items = buf._items
        n = len(items)
        if n >= buf._capacity:
            raise BufferError_(f"push to full buffer {buf.name}")
        items.append(msg)
        dst.fills[n] += 1
        comp = dst.component
        if comp is not None:
            if comp._chains[_PORT_DELIVER]:
                now = comp._engine._now
                for hook in comp._chains[_PORT_DELIVER]:
                    hook(dst, now, msg)
            if comp._next_scheduled != comp._near_tick:
                comp.notify_recv(dst)

    def notify_available(self, port: Port) -> None:
        """A buffer slot freed at *port*; wake potential senders (not
        those already due next cycle: ``TickingComponent._near_tick``)."""
        for p in self._ports:
            if p is not port:
                comp = p.component
                if comp is not None and \
                        comp._next_scheduled != comp._near_tick:
                    comp.notify_available(p)
