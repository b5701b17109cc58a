"""Ports: the endpoints through which components exchange messages.

A port owns one bounded *incoming* buffer, and is its only writer:
:meth:`Port.deliver` appends, :meth:`Port.retrieve_incoming` takes the
oldest.  Sending is mediated by the connection the port is plugged
into; the connection reserves a slot on the destination buffer at send
time (``Buffer.free_slots`` counts it) so messages in flight can never
overflow the destination (hardware-accurate backpressure).

The incoming buffer is named ``<port name>.Buf`` so it shows up in the
bottleneck analyzer exactly as in the paper's Figure 3
(``GPU[1].SA[15].L1VROB[0].TopPort.Buf``).
"""

from __future__ import annotations

from typing import Deque, Optional, TYPE_CHECKING

from .buffer import Buffer
from .errors import BufferError_, PortError
from .hooks import HookPos
from .message import Msg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .component import Component
    from .connection import Connection

_PORT_DELIVER = HookPos.PORT_DELIVER.index
_PORT_RETRIEVE = HookPos.PORT_RETRIEVE.index


class Port:
    """A named, buffered endpoint attached to a component."""

    def __init__(self, component: Optional["Component"], name: str,
                 buf_capacity: int = 4):
        self.component = component
        self.name = name
        self.buf = Buffer(f"{name}.Buf", buf_capacity)
        #: The buffer's own deque, oldest first: :meth:`peek_incoming`
        #: without the call, for the owning component's tick.  Read-only
        #: by contract; a Buffer never rebinds its deque.
        self.incoming = self.buf._items
        self._connection: Optional["Connection"] = None
        #: Messages sent through this port (monitorable; deltas give
        #: the per-port throughput view the paper lists as a future
        #: extension in §VIII).
        self.num_sent = 0
        #: Deliveries by the fill they found: ``fills[n]`` arrivals met
        #: ``n`` messages waiting (the occupancy histogram, pulled).
        self.fills = [0] * self.buf._capacity

    @property
    def num_delivered(self) -> int:
        return sum(self.fills)

    # -- wiring ------------------------------------------------------------
    @property
    def connection(self) -> Optional["Connection"]:
        return self._connection

    def set_connection(self, conn: "Connection") -> None:
        if self._connection is not None:
            raise PortError(f"port {self.name} is already connected")
        self._connection = conn

    def replace_connection(self, conn: "Connection") -> None:
        """Rebind this port to *conn*, even if already connected.

        Post-build rewiring only (the shard runtime swaps boundary
        edges for proxy connections after the full platform is built);
        never call this on a port with messages in flight.
        """
        self._connection = conn

    # -- sending -----------------------------------------------------------
    def send(self, msg: Msg) -> bool:
        """Send *msg* through the connection.

        Returns ``True`` on success, ``False`` when backpressure prevents
        the send (mirroring Akita's non-blocking ``Send``).  Components
        treat a ``False`` as "retry on a later tick".  The connection's
        ``try_send`` does the rest, hooks included, in one call.
        """
        conn = self._connection
        if conn is None:
            raise PortError(f"port {self.name} is not connected")
        if conn.try_send(self, msg):
            self.num_sent += 1
            return True
        return False

    def drain(self, queue: Deque[Msg], limit: int) -> int:
        """Send the head of *queue* until a send is refused, the queue
        is empty or *limit* messages have gone; return how many went.

        A refused head stays queued for a later tick.  Each send is
        :meth:`send`'s, through the connection's one door.
        """
        conn = self._connection
        if conn is None:
            raise PortError(f"port {self.name} is not connected")
        sent = 0
        while queue and sent < limit and conn.try_send(self, queue[0]):
            queue.popleft()
            sent += 1
        self.num_sent += sent
        return sent

    # -- receiving ----------------------------------------------------------
    def deliver(self, msg: Msg) -> None:
        """Called by the connection when a message arrives.

        ``DirectConnection.handle`` lands its deliveries with this same
        body in its own frame; a change here is a change there.
        """
        # The slot was reserved at send time; overflowing here is a
        # modelling bug, not backpressure.
        buf = self.buf
        items = buf._items
        n = len(items)
        if n >= buf._capacity:
            raise BufferError_(f"push to full buffer {buf.name}")
        items.append(msg)
        self.fills[n] += 1
        comp = self.component
        if comp is not None:
            if comp._chains[_PORT_DELIVER]:
                now = comp._engine._now
                for hook in comp._chains[_PORT_DELIVER]:
                    hook(self, now, msg)
            # Nothing to tell a component already due next cycle.
            if comp._next_scheduled != comp._near_tick:
                comp.notify_recv(self)

    def peek_incoming(self) -> Optional[Msg]:
        """Look at the oldest received message without consuming it."""
        items = self.incoming
        return items[0] if items else None

    def retrieve_incoming(self) -> Optional[Msg]:
        """Consume and return the oldest received message, or ``None``.

        Consuming frees a buffer slot; the connection is notified so that
        senders blocked on backpressure wake up and retry.
        """
        items = self.incoming
        if not items:
            return None
        msg = items.popleft()
        comp = self.component
        if comp is not None and comp._chains[_PORT_RETRIEVE]:
            now = comp._engine._now
            for hook in comp._chains[_PORT_RETRIEVE]:
                hook(self, now, msg)
        conn = self._connection
        if conn is not None:
            conn.notify_available(self)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name}>"
