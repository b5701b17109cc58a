"""Components: named pieces of simulated hardware.

A :class:`Component` owns ports and reacts to events.  A
:class:`TickingComponent` additionally follows Akita's tick discipline:

* Each cycle the engine delivers a :class:`~repro.akita.event.TickEvent`
  and the component's :meth:`~TickingComponent.tick` tries to make
  progress.
* If the tick made progress, the same event is pushed again as the
  next cycle's tick; otherwise the component *sleeps* — it consumes
  zero events until something wakes it (a message arrival, freed
  buffer space, or AkitaRTM's *Tick* button via
  :meth:`TickingComponent.tick_later`).
* A tick enters only the sub-steps whose input holds work (a queue, a
  port's incoming messages): an empty one is skipped without a frame.
* Ports and connections skip ``notify_*`` for a component whose
  next-cycle tick is already pending (``_next_scheduled == _near_tick``:
  never true of a non-ticking component, which is told every time).

The sleep/wake discipline is what makes hangs observable: a deadlocked
simulation puts every component to sleep, the event queue runs dry, and
the monitor sees virtual time freeze while buffers stay non-empty.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Dict, List

from . import naming
from .engine import Engine
from .errors import ConfigurationError
from .event import Event, TickEvent
from .hooks import HookPos, Hookable, TaskInfo
from .port import Port
from .ticker import GHZ, next_tick


_TASK_BEGIN = HookPos.TASK_BEGIN.index
_TASK_END = HookPos.TASK_END.index
_new = object.__new__  # a hot TickEvent skips its __init__ frame


class Component(Hookable):
    """Base class for all simulated hardware blocks."""

    def __init__(self, name: str, engine: Engine):
        super().__init__()
        naming.validate(name)
        self.name = name
        self._engine = engine
        self._ports: Dict[str, Port] = {}
        # ``notify_*`` is called only while these two differ, and only
        # a TickingComponent makes them meet.  (Not class attributes:
        # shadowed, they send core.inspector's reflection to ``vars()``.)
        self._next_scheduled: float | None = None
        self._near_tick = -1.0

    # -- ports ---------------------------------------------------------
    def add_port(self, local_name: str, buf_capacity: int = 4) -> Port:
        """Create a port named ``<component>.<local_name>``."""
        if local_name in self._ports:
            raise ValueError(
                f"component {self.name} already has port {local_name}")
        port = Port(self, naming.join(self.name, local_name), buf_capacity)
        self._ports[local_name] = port
        return port

    def port(self, local_name: str) -> Port:
        return self._ports[local_name]

    @property
    def ports(self) -> List[Port]:
        return list(self._ports.values())

    @property
    def engine(self) -> Engine:
        return self._engine

    # -- event handling --------------------------------------------------
    def handle(self, event: Event) -> None:
        raise NotImplementedError

    # -- task annotations (observed by repro.trace) ------------------------
    @property
    def _tasks_observed(self) -> bool:
        """True while a hook is subscribed to ``TASK_BEGIN`` or
        ``TASK_END``.  Call sites that format a label for
        :meth:`task_begin` / :meth:`task_end` guard on this, so a
        component watched only for other positions (metrics) formats
        nothing.  (Underscored so that monitoring plumbing stays out of
        the component's reflected field panel.)"""
        chains = self._chains
        return bool(chains[_TASK_BEGIN] or chains[_TASK_END])

    def task_begin(self, task_id: Any, kind: str = "",
                   what: str = "") -> None:
        """Announce the start of a unit of work (workgroup, cache miss,
        RDMA transfer...).  No-op unless a hook is subscribed to
        ``TASK_BEGIN``; call sites that build their arguments should
        guard with ``if self._tasks_observed`` to skip that work too.
        """
        if self._chains[_TASK_BEGIN]:
            now, info = self._engine._now, TaskInfo(task_id, kind, what)
            for hook in self._chains[_TASK_BEGIN]:
                hook(self, now, info)

    def task_end(self, task_id: Any, kind: str = "",
                 what: str = "") -> None:
        """Announce the end of the unit of work opened with the same
        *task_id* via :meth:`task_begin`."""
        if self._chains[_TASK_END]:
            now, info = self._engine._now, TaskInfo(task_id, kind, what)
            for hook in self._chains[_TASK_END]:
                hook(self, now, info)

    # -- notifications (called by ports/connections) -----------------------
    def notify_recv(self, port: Port) -> None:
        """A message arrived at *port*."""

    def notify_available(self, port: Port) -> None:
        """Buffer space freed somewhere this component may want to send."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class TickingComponent(Component):
    """A component driven by per-cycle tick events with sleep/wake."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ):
        super().__init__(name, engine)
        if not freq > 0:  # or the next cycle boundary is not after now
            raise ConfigurationError(
                f"component {name!r} needs a positive freq, got {freq}")
        self.freq = freq
        # ``_near_tick`` is a tick time known to be no later than the
        # next cycle boundary.  The boundary only moves forward, so
        # while ``_next_scheduled`` equals it a wake-up has nothing to
        # schedule, and one comparison at the call site says so.
        # Whoever else writes ``_next_scheduled`` (fault injector,
        # checkpoint restore) disarms the shortcut by changing it.
        self._last_tick_time = -1.0
        self.tick_count = 0  # total ticks executed (observable by RTM)

    # -- the per-cycle work, supplied by subclasses -------------------------
    def tick(self) -> bool:
        """Advance one cycle.  Return True iff progress was made."""
        raise NotImplementedError

    # -- tick machinery ----------------------------------------------------
    def handle(self, event: Event) -> None:
        if isinstance(event, TickEvent):
            at = event.time
            scheduled = self._next_scheduled
            if scheduled is not None and at >= scheduled:
                self._next_scheduled = None
            if at == self._last_tick_time:
                # Duplicate tick in the same cycle (can happen when the
                # monitor pokes a component that was already scheduled).
                return
            self._last_tick_time = at
            self.tick_count += 1
            if self.tick():
                # tick_later() in this frame, one per progressing tick,
                # re-pushing the event in hand (hooks.py: AFTER_EVENT).
                scheduled = self._next_scheduled
                if scheduled != self._near_tick:
                    engine = self._engine
                    freq = self.freq
                    t = (int(engine._now * freq + 1e-6) + 1) / freq
                    if scheduled is not None and scheduled <= t:
                        self._near_tick = scheduled
                    else:
                        self._next_scheduled = self._near_tick = t
                        event.time = t
                        queue = engine._queue
                        heappush(queue._heap,
                                 (t, True, next(queue._seq), event))

    def tick_later(self, port: Port | None = None) -> None:
        """Schedule a tick for the next cycle unless an earlier-or-equal
        tick is already pending.

        Safe to call from monitoring threads; this is the primitive
        behind AkitaRTM's *Tick* button.  It is both ``notify_*``
        wake-ups too (one frame each), hence the ignored *port*.
        """
        scheduled = self._next_scheduled
        if scheduled == self._near_tick:
            return
        engine = self._engine
        freq = self.freq
        # ticker.next_tick(), spelled out: > now for any positive freq,
        # the one thing Engine.schedule checks before this same push (a
        # foreign thread's late tick is handled at the current time).
        t = (int(engine._now * freq + 1e-6) + 1) / freq
        if scheduled is not None and scheduled <= t:
            self._near_tick = scheduled
            return
        self._next_scheduled = self._near_tick = t
        event = _new(TickEvent)
        event.time = t
        event.handler = self
        event.secondary = True
        queue = engine._queue
        heappush(queue._heap, (t, True, next(queue._seq), event))

    def tick_at(self, t: float) -> None:
        """Schedule a tick at cycle-aligned time *t* (used by components
        that wait out a fixed latency, e.g. DRAM).

        If an earlier tick is already pending this is a no-op; if only a
        *later* tick is pending, the earlier one is scheduled anyway and
        the later one becomes a harmless stale wakeup.
        """
        engine = self._engine
        soonest = next_tick(engine._now, self.freq)
        if t <= soonest:
            t = soonest
        scheduled = self._next_scheduled
        if scheduled is not None and scheduled <= t:
            return
        self._next_scheduled = t
        if t == soonest:
            self._near_tick = t
        engine.schedule(TickEvent(t, self))

    @property
    def asleep(self) -> bool:
        """True when no tick is scheduled (the component is sleeping)."""
        return self._next_scheduled is None

    notify_recv = notify_available = tick_later
