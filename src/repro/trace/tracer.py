"""The tracer: notes hook firings as raw records in a store.

A :class:`Tracer` subscribes every component to the three port
positions and the two task positions, and every connection to
``CONN_DROP`` — one bound callable per position, entered nowhere else.
Detached, the simulation pays nothing: every firing site finds its
position's hook chain empty.  Attached, each fact costs one tuple of
numbers and long-lived references (:data:`.events.RECORD_FIELDS`) in
the store; names, the ``"3/8"`` occupancy string and the
``re:<id>`` link are formatted when the record is read, and only for the
rows a query returns.  A record never holds the message itself.

The per-message linkage rule: a message keeps its id for one hop
(send → deliver → retrieve, or send → drop).  Components forward work
as *new* messages, so a request's journey through the hierarchy is a
chain of hops; responses carry ``re:<request id>`` in ``extra`` so the
two directions can be paired.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from ..akita.hooks import HookCtx, HookPos
from ..akita.simulation import Simulation
from .events import TraceEvent, TraceKind, message_path
from .store import RingStore, TraceStore


def _request_id(msg: Any) -> Optional[int]:
    """Id of the request *msg* answers, or None for a request."""
    original = getattr(msg, "respond_to", None)
    if original is None:
        original = getattr(msg, "original_id", None)
    return original


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
        self._record = self.store.record
        self._component_hooks = (
            (HookPos.PORT_SEND, self._on_send),
            (HookPos.PORT_DELIVER, self._on_deliver),
            (HookPos.PORT_RETRIEVE, self._on_retrieve),
            (HookPos.TASK_BEGIN, self._on_task_begin),
            (HookPos.TASK_END, self._on_task_end),
        )

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
    # The hooks (run on the simulation thread; must stay cheap)
    # ------------------------------------------------------------------
    def _on_send(self, ctx: HookCtx) -> None:
        msg = ctx.item
        self._record(ctx.now, TraceKind.SEND, ctx.domain, None, msg.id,
                     type(msg), msg.src, msg.dst, None, _request_id(msg))

    def _on_deliver(self, ctx: HookCtx) -> None:
        port = ctx.domain
        msg = ctx.item
        self._record(ctx.now, TraceKind.DELIVER, port, None, msg.id,
                     type(msg), msg.src, msg.dst, len(port.buf),
                     _request_id(msg))

    def _on_retrieve(self, ctx: HookCtx) -> None:
        port = ctx.domain
        msg = ctx.item
        self._record(ctx.now, TraceKind.RETRIEVE, port, None, msg.id,
                     type(msg), msg.src, msg.dst, len(port.buf),
                     _request_id(msg))

    def _on_drop(self, ctx: HookCtx) -> None:
        msg = ctx.item.msg
        self._record(ctx.now, TraceKind.DROP, ctx.domain, None, msg.id,
                     type(msg), msg.src, msg.dst, None, _request_id(msg))

    def _on_task_begin(self, ctx: HookCtx) -> None:
        info = ctx.item
        self._record(ctx.now, TraceKind.TASK_BEGIN, ctx.domain,
                     info.what, None, info.kind, None, None, None,
                     info.task_id)

    def _on_task_end(self, ctx: HookCtx) -> None:
        info = ctx.item
        self._record(ctx.now, TraceKind.TASK_END, ctx.domain,
                     info.what, None, info.kind, None, None, None,
                     info.task_id)

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
