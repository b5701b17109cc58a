"""The tracer: notes hook firings as raw records in a store.

A :class:`Tracer` subscribes every component to the three port
positions and the two task positions, and every connection to
``CONN_DROP`` — one closure per position, entered nowhere else.
Detached, the simulation pays nothing: every firing site finds its
position's hook chain empty.  Attached, each fact costs one frame: the
closure the firing site calls builds one tuple of numbers and
long-lived references (:data:`.events.RECORD_FIELDS`), numbered by the
store's ``seq()``, and hands it to the store's ``put`` — for the ring,
the deque's own ``extend``, which keeps the fields flat and lets the
tuple die with the call.  Names, the ``"3/8"`` occupancy string and
the ``re:<id>`` link are formatted when the record is read, and only
for the rows a query returns.  A record never holds the message itself.

The per-message linkage rule: a message keeps its id for one hop
(send → deliver → retrieve, or send → drop).  Components forward work
as *new* messages, so a request's journey through the hierarchy is a
chain of hops; responses carry ``re:<request id>`` in ``extra`` so the
two directions can be paired.

Also the RTM server's trace plane: :func:`ensure_tracer`, :data:`ROUTES`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..akita.hooks import HookCtx, HookPos
from ..akita.simulation import Simulation
from ..core.http import (BadRequest, NotFound, action_param, float_param,
                         int_param)
from .events import TraceEvent, TraceKind, message_path
from .store import RingStore, SQLiteStore, TraceStore


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


# -- the trace plane ---------------------------------------------------
def ensure_tracer(monitor, backend: str = "ring", capacity: int = 65536,
                  db_path: Optional[str] = None,
                  include: Optional[str] = None) -> Tracer:
    """``Monitor.ensure_tracer``: the monitor's tracer, created on first
    use over a ``"ring"`` (bounded, in memory) or ``"sqlite"`` (durable,
    at *db_path*) store."""
    if monitor.tracer is None:
        if monitor.simulation is None:
            raise RuntimeError("tracing needs a registered simulation")
        if backend == "sqlite":
            if not db_path:
                raise ValueError("sqlite trace backend needs a db_path")
            store: TraceStore = SQLiteStore(db_path)
        elif backend == "ring":
            store = RingStore(capacity)
        else:
            raise ValueError(
                f"backend must be 'ring' or 'sqlite', got {backend!r}")
        monitor.tracer = Tracer(monitor.simulation, store, include=include)
    return monitor.tracer


def _attached(monitor) -> Tracer:
    tracer = monitor.tracer
    if tracer is None:
        raise NotFound("no tracer attached; POST /api/trace?action=start")
    return tracer


def _status(server, params):
    tracer = server.monitor.tracer
    return {"attached": tracer is not None,
            **(tracer.status() if tracer else {})}


def _query(server, params):
    tracer = _attached(server.monitor)
    filters: Dict[str, Any] = {"limit": int_param(params, "limit", 200)}
    if "component" in params:
        try:
            re.compile(params["component"])
        except re.error as exc:
            raise BadRequest(f"bad component regex: {exc}") from None
        filters["component"] = params["component"]
    if "kind" in params:
        filters["kind"] = params["kind"].split(",")
    if "t0" in params:
        filters["t0"] = float_param(params, "t0")
    if "t1" in params:
        filters["t1"] = float_param(params, "t1")
    if "msg_id" in params:
        filters["msg_id"] = int_param(params, "msg_id", 0)
    events = tracer.query(**filters)
    return {"count": len(events), "events": [ev.to_dict() for ev in events]}


def _follow(server, params):
    tracer = _attached(server.monitor)
    if "msg_id" not in params:
        raise BadRequest("parameter 'msg_id' is required")
    msg_id = int_param(params, "msg_id", 0)
    events = tracer.follow(msg_id)
    if not events:
        raise NotFound(f"no trace events for message {msg_id}")
    return {"msg_id": msg_id, "events": [ev.to_dict() for ev in events],
            "path": message_path(events)}


def _export(server, params):
    """The document itself: a request names no file to write."""
    from .export import export_events
    tracer = _attached(server.monitor)
    events = tracer.query(limit=int_param(params, "limit", 0))
    try:
        return export_events(events, params.get("format", "jsonl"))
    except ValueError as exc:
        raise BadRequest(str(exc)) from None


def _control(server, params):
    """A request names no file: HTTP starts the ring store, and a SQLite
    store is opened from Python (``ensure_tracer(db_path=)``) or by
    ``repro trace --backend sqlite --db``."""
    monitor = server.monitor
    action = action_param(params, "start", "stop", "clear")
    if "backend" in params or "db" in params:
        raise BadRequest("the HTTP API records to the ring store only; "
                         "open a SQLite store from Python")
    if action == "start":
        try:
            tracer = monitor.ensure_tracer(
                capacity=int_param(params, "capacity", 65536),
                include=params.get("include"))
        except (RuntimeError, ValueError) as exc:
            raise BadRequest(str(exc)) from None
        tracer.start()
    else:
        tracer = _attached(monitor)
        if action == "stop":
            tracer.stop()
        else:
            tracer.clear()
    return tracer.status()


ROUTES = (
    ("GET", "/api/trace", _status, "tracer status + store stats"),
    ("GET", "/api/trace/query?component&kind&t0&t1&msg_id&limit", _query,
     "filtered trace events"),
    ("GET", "/api/trace/follow?msg_id", _follow,
     "one message's hops + path"),
    ("GET", "/api/trace/export?format&limit", _export,
     "JSONL / Perfetto export"),
    ("POST", "/api/trace?action=start|stop|clear&capacity&include",
     _control, "control the tracer (ring store)"),
)
