"""Events and event handlers.

An event is the atom of a discrete-event simulation: a (time, handler)
pair, processed in non-decreasing time order by the engine.  Handlers are
usually components; the most common event is a :class:`TickEvent`, which
asks a ticking component to advance by one cycle.

Two details mirror the Go Akita framework:

* **Secondary events.**  Within a single timestamp, *primary* events run
  before *secondary* ones.  Ticks and message deliveries are both
  secondary, so a delivery and a tick of the same timestamp run in the
  order they were scheduled: a tick sees a same-time arrival only if the
  delivery was pushed first.  Nothing puts deliveries before ticks yet
  (ROADMAP item 3).
* **Deterministic ties.**  Events of the same timestamp and class run
  in the order they were scheduled: the queue numbers its own
  insertions (see :mod:`repro.akita.queue`), so two runs of the same
  simulation process events in exactly the same order.  An event
  itself carries no identity beyond its fields.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

#: Virtual time, in simulated seconds.  A 1 GHz component ticks every 1e-9.
VTimeInSec = float


@runtime_checkable
class Handler(Protocol):
    """Anything that can process events."""

    def handle(self, event: "Event") -> None:
        """Process *event*.  Called exactly once by the engine."""
        ...


class Event:
    """Base class of all events.

    Parameters
    ----------
    time:
        Virtual time at which the event fires.
    handler:
        Object whose :meth:`Handler.handle` is invoked when it fires.
    secondary:
        If true, the event runs after all primary events of the same
        timestamp.
    """

    __slots__ = ("time", "handler", "secondary")

    def __init__(self, time: VTimeInSec, handler: Handler,
                 secondary: bool = False):
        self.time = float(time)
        self.handler = handler
        self.secondary = bool(secondary)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = type(self).__name__
        return f"<{kind} t={self.time:.9f}>"


class TickEvent(Event):
    """Asks a ticking component to advance one cycle.

    Tick events are *secondary*, like deliveries: a same-time delivery
    lands before the tick only if it was scheduled first (see the module
    docstring).  A tick that made progress is re-pushed as the next
    cycle's tick (``TickingComponent.handle``).
    """

    __slots__ = ()

    def __init__(self, time: VTimeInSec, handler: Handler):
        # Slots filled directly, uncoerced: the one caller that matters
        # is the tick machinery, which computed *time* itself.
        self.time = time
        self.handler = handler
        self.secondary = True


class CallbackEvent(Event):
    """Runs an arbitrary callable at a given time.

    Useful for driver timeouts, RTM "kick start" pokes and tests.  The
    callback receives the event so it can reschedule itself.
    """

    __slots__ = ("callback",)

    class _CallbackHandler:
        __slots__ = ()

        def handle(self, event: "Event") -> None:
            assert isinstance(event, CallbackEvent)
            event.callback(event)

    _handler_singleton = _CallbackHandler()

    def __init__(self, time: VTimeInSec,
                 callback: Callable[["CallbackEvent"], None],
                 secondary: bool = False):
        super().__init__(time, self._handler_singleton, secondary)
        self.callback = callback
