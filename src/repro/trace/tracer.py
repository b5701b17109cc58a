"""The tracer: notes hook firings as raw records in a store.

A :class:`Tracer` subscribes every component to the three port
positions and the two task positions, and every connection to
``CONN_DROP`` — one closure per position, entered nowhere else.
Detached, the simulation pays nothing: every firing site finds its
position's hook chain empty.  Attached, each fact costs one frame: the
closure the firing site calls builds one tuple of numbers and
long-lived references (:data:`.events.RECORD_FIELDS`), numbered by the
store's ``seq()``, and hands it to the store's ``put`` — for the ring,
the deque's own ``append``.  Names, the ``"3/8"`` occupancy string and
the ``re:<id>`` link are formatted when the record is read, and only
for the rows a query returns.  A record never holds the message itself.

The per-message linkage rule: a message keeps its id for one hop
(send → deliver → retrieve, or send → drop).  Components forward work
as *new* messages, so a request's journey through the hierarchy is a
chain of hops; responses carry ``re:<request id>`` in ``extra`` so the
two directions can be paired.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..akita.hooks import HookCtx, HookPos
from ..akita.simulation import Simulation
from .events import TraceEvent, TraceKind, message_path
from .store import RingStore, TraceStore


def _recording_hooks(store: TraceStore) -> Tuple[
        Tuple[Tuple[HookPos, Callable[..., None]], ...],
        Callable[[HookCtx], None]]:
    """The hooks that write into *store*: ``(position, hook)`` for the
    five component positions, and the ``CONN_DROP`` hook.

    Each runs on the simulation thread once per fact and is one
    expression over its arguments and closure cells; a buffer's fill is
    read off the deque itself, ``len(port.buf)`` being two more calls.
    """
    put, seq = store.put, store.seq
    SEND, DELIVER, RETRIEVE, DROP, TASK_BEGIN, TASK_END = TraceKind.ALL

    def on_send(port, now, msg):
        put((seq(), now, SEND, port, None, msg.id, type(msg), msg.src,
             msg.dst, None, msg.respond_to))

    def on_deliver(port, now, msg):
        put((seq(), now, DELIVER, port, None, msg.id, type(msg), msg.src,
             msg.dst, len(port.buf._items), msg.respond_to))

    def on_retrieve(port, now, msg):
        put((seq(), now, RETRIEVE, port, None, msg.id, type(msg),
             msg.src, msg.dst, len(port.buf._items), msg.respond_to))

    def on_task_begin(component, now, info):
        put((seq(), now, TASK_BEGIN, component, info.what, None,
             info.kind, None, None, None, info.task_id))

    def on_task_end(component, now, info):
        put((seq(), now, TASK_END, component, info.what, None,
             info.kind, None, None, None, info.task_id))

    def on_drop(ctx: HookCtx):
        msg = ctx.item.msg
        put((seq(), ctx.now, DROP, ctx.domain, None, msg.id, type(msg),
             msg.src, msg.dst, None, msg.respond_to))

    return ((HookPos.PORT_SEND, on_send),
            (HookPos.PORT_DELIVER, on_deliver),
            (HookPos.PORT_RETRIEVE, on_retrieve),
            (HookPos.TASK_BEGIN, on_task_begin),
            (HookPos.TASK_END, on_task_end)), on_drop


class Tracer:
    """Records the lifecycle of messages and tasks in one simulation."""

    def __init__(self, simulation: Simulation,
                 store: Optional[TraceStore] = None,
                 include: Optional[str] = None):
        """
        Parameters
        ----------
        simulation:
            The simulation to observe.
        store:
            Event sink; defaults to a :class:`RingStore`.
        include:
            Optional component-name regex.  Only matching components are
            hooked, so excluded components pay zero recording cost (the
            filter acts at attach time, not per event).
        """
        self.simulation = simulation
        self.store = store if store is not None else RingStore()
        self.include = include
        self._recording = False
        self._hooked_components: List[Any] = []
        self._hooked_connections: List[Any] = []
        self._component_hooks, self._on_drop = \
            _recording_hooks(self.store)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def recording(self) -> bool:
        return self._recording

    def start(self) -> None:
        """Attach hooks and begin recording (idempotent)."""
        if self._recording:
            return
        pattern = re.compile(self.include) if self.include else None
        for component in self.simulation.components:
            if pattern is None or pattern.search(component.name):
                for pos, hook in self._component_hooks:
                    component.accept_hook(hook, (pos,))
                self._hooked_components.append(component)
        for conn in self.simulation.connections:
            conn.accept_hook(self._on_drop, (HookPos.CONN_DROP,))
            self._hooked_connections.append(conn)
        self._recording = True

    def stop(self) -> None:
        """Detach all hooks and flush the store (idempotent)."""
        for component in self._hooked_components:
            for _, hook in self._component_hooks:
                component.remove_hook(hook)
        for conn in self._hooked_connections:
            conn.remove_hook(self._on_drop)
        self._hooked_components.clear()
        self._hooked_connections.clear()
        self.store.flush()
        self._recording = False

    def close(self) -> None:
        self.stop()
        self.store.close()

    def clear(self) -> None:
        self.store.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, **filters) -> List[TraceEvent]:
        """Delegates to the store; see :meth:`TraceStore.query`."""
        return self.store.query(**filters)

    def follow(self, msg_id: int) -> List[TraceEvent]:
        """Every recorded lifecycle event of message *msg_id*, plus the
        events of responses that answer it, oldest first."""
        events = self.store.query(msg_id=msg_id, limit=0)
        link = f"re:{msg_id}"
        followups = [ev for ev in self.store.query(limit=0)
                     if link in ev.extra.split()]
        merged = {ev.seq: ev for ev in events + followups}
        return [merged[seq] for seq in sorted(merged)]

    def path(self, msg_id: int) -> List[str]:
        """Human-readable hop list for message *msg_id*."""
        return message_path(self.follow(msg_id))

    # ------------------------------------------------------------------
    # Introspection (drives /api/trace)
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        return {
            "recording": self._recording,
            "include": self.include,
            "hooked_components": len(self._hooked_components),
            "hooked_connections": len(self._hooked_connections),
            "store": self.store.stats(),
        }
