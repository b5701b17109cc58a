"""The serial discrete-event engine.

The engine owns the event queue and the virtual clock.  It is the single
object AkitaRTM needs to control a simulation: the monitor pauses and
resumes it, queries its time, and counts its events to estimate simulation
speed.

Threading model
---------------
Exactly one thread (the *simulation thread*) calls :meth:`Engine.run`.
Any other thread (e.g. AkitaRTM's HTTP server thread) may call
:meth:`pause`, :meth:`continue_`, :meth:`schedule` and the read-only
accessors.  Pausing blocks the simulation thread *between* events, so a
paused simulation is at a consistent event boundary and can be inspected
safely.

There is no lock.  The simulation thread is the only one that pops, and
both it and foreign threads insert with a single ``heappush`` of an
entry whose tie-break number comes from one atomic ``next()`` — the two
properties (spelled out in :mod:`repro.akita.queue`) that make every
heap operation complete under the interpreter lock without running
Python code, so a foreign insert is never lost, never duplicates a
sequence number and never leaves the heap half-sifted under the loop.
The accessors read with one subscript and treat "just emptied" as
empty.  Within ``akita``, code that has established ``time >= now`` (a
tick's next cycle boundary, a send plus a checked latency) makes that
same push itself; for everyone else ``_queue`` is private
(``tests/test_layering.py``) and :meth:`schedule` the door.  Only the
loop writes ``_now``; a ``Component`` subclass may read it as
``self._engine._now``, anyone else uses :attr:`now`.

What a foreign thread cannot know is the time: it reads :attr:`now`,
the loop moves on, and its event arrives in the loop's past.  That is
settled where the event is consumed, not where it is inserted: the loop
never steps the clock backwards, and handles a late event *at the
current time* (``event.time`` is moved up to match, so a handler that
reschedules relative to it stays in the present).  Only the caller that
cannot have raced the loop — the thread that runs it, or anyone before
the first run — gets :class:`SchedulingError` for an event in the past.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from heapq import heappop, heappush
from typing import Optional

from .errors import EngineError, SchedulingError
from .event import Event, VTimeInSec
from .hooks import Hookable, HookCtx, HookPos
from .queue import EventQueue
from .threads import register_current_thread as _register_sim_thread


_BEFORE_EVENT = HookPos.BEFORE_EVENT.index
_AFTER_EVENT = HookPos.AFTER_EVENT.index


class RunState(enum.Enum):
    """Lifecycle of an engine as observed by monitoring tools."""

    IDLE = "idle"          # run() not yet called
    RUNNING = "running"    # processing events
    PAUSED = "paused"      # blocked between two events on user request
    DRY = "dry"            # queue ran empty; simulation may be done or hung
    ENDED = "ended"        # terminate() called; run() will not resume


class Engine(Hookable):
    """A serial event-driven engine with external pause/resume control."""

    def __init__(self) -> None:
        super().__init__()
        self._queue = EventQueue()
        self._now: VTimeInSec = 0.0
        # Ident of the thread that last entered the event loop.
        self._sim_thread: Optional[int] = None
        self._resume = threading.Event()
        self._resume.set()
        self._pause_requested = False
        self._terminated = False
        self._state = RunState.IDLE
        self._event_count = 0
        self._last_event_time: VTimeInSec = 0.0
        self._throttle_delay = 0.0  # wall seconds inserted per event
        #: The id of the next message built for a port of this engine
        #: (``Msg.__init__``); pickles with the engine.
        self.next_msg_id = 0

    # ------------------------------------------------------------------
    # Read-only accessors (safe from any thread)
    # ------------------------------------------------------------------
    @property
    def now(self) -> VTimeInSec:
        """Current virtual time in seconds."""
        return self._now

    @property
    def run_state(self) -> RunState:
        return self._state

    @property
    def event_count(self) -> int:
        """Total number of events processed so far."""
        return self._event_count

    @property
    def pending_event_count(self) -> int:
        return len(self._queue)

    @property
    def next_event_time(self) -> Optional[VTimeInSec]:
        """Timestamp of the earliest pending event, or ``None`` when the
        queue is empty.  The quantity shards report at every window
        barrier: the coordinator's grant horizon is the minimum of
        these across shards plus the sync window."""
        return self._queue.next_time()

    @property
    def last_event_time(self) -> VTimeInSec:
        """Time of the most recently processed event.  Unlike
        :attr:`now` this never moves on a windowed clock clamp, so it
        is the honest "how far did the simulation get" answer — a
        shard's final solo grant parks :attr:`now` a full grant past
        the last real event."""
        return self._last_event_time

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Event) -> None:
        """Insert *event* into the queue.  Safe from any thread.

        Raises
        ------
        SchedulingError
            If the event is in the past and the caller is the
            simulation thread (see the module docstring): any other
            thread may have raced the loop, and has its late event
            handled at the current time instead.
        """
        at = event.time
        if at < self._now and self._sim_thread in (
                None, threading.get_ident()):
            raise SchedulingError(
                f"cannot schedule event at {at} when now={self._now}")
        queue = self._queue
        heappush(queue._heap,
                 (at, event.secondary, next(queue._seq), event))

    # ------------------------------------------------------------------
    # Control (callable from monitoring threads)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        """Request the engine to block before processing its next event.

        Idempotent.  Returns immediately; the simulation thread parks at
        the next event boundary.
        """
        self._pause_requested = True
        self._resume.clear()
        self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_PAUSE))

    def continue_(self) -> None:
        """Release a paused engine.  Idempotent."""
        self._pause_requested = False
        self._resume.set()
        self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_CONTINUE))

    @property
    def paused(self) -> bool:
        return self._pause_requested

    def set_throttle(self, events_per_second: float = 0.0) -> None:
        """Slow the simulation down to at most *events_per_second*
        (0 = full speed).

        This is the paper's "slowing down time in the simulator to try
        to catch specific instances of component ticks" (§V-C): with
        the event rate capped to human speed, the dashboard's
        self-refreshing views become a live animation of the hardware.
        Safe to call from monitoring threads.
        """
        if not events_per_second > 0:  # NaN too: no rate to hold
            self._throttle_delay = 0.0
        else:
            self._throttle_delay = 1.0 / events_per_second

    def terminate(self) -> None:
        """Abort the simulation: run() returns as soon as possible and
        never processes another event."""
        self._terminated = True
        self._resume.set()

    # ------------------------------------------------------------------
    # Execution (simulation thread only)
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Process events until the queue is empty or :meth:`terminate`.

        May be called repeatedly: a hung simulation leaves the queue empty
        without reaching its completion condition, and scheduling a fresh
        event (e.g. AkitaRTM's *Tick* button) followed by another
        :meth:`run` resumes processing — this is the "kick start" path
        described in the paper's second case study.
        """
        if self._terminated:
            raise EngineError("cannot run a terminated engine")
        # Claim the *simulation* role for the calling thread: the sim
        # thread is, by definition, whoever runs the engine, and a
        # profiler attached from above reads the claim so server and
        # watchdog threads can never masquerade as simulation time.
        _register_sim_thread("simulation")
        self._state = RunState.RUNNING
        self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_START))
        self._process_before(math.inf)
        if self._terminated:
            self._state = RunState.ENDED
            self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_END))
        else:
            self._state = RunState.DRY
            self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_DRY))

    def _process_before(self, horizon: VTimeInSec,
                        pausable: bool = True) -> None:
        """The event loop: handle every event with ``time < horizon``
        in queue order, until the queue holds none or
        :meth:`terminate`.  Parks between events while a pause is
        requested, unless *pausable* is false."""
        heap = self._queue._heap
        now = self._now
        # One reusable ctx serves the before/after pair of every event:
        # constructing two dataclasses per event is measurable at
        # millions of events.  Hooks must not retain the ctx (see
        # hooks.py).  The chains are read afresh at each firing, so a
        # hook attached between the two firings of one event still sees
        # a correctly filled ctx.
        ctx = HookCtx(self, now, HookPos.BEFORE_EVENT)
        self._sim_thread = threading.get_ident()
        while not self._terminated:
            if self._pause_requested and pausable:
                self._state = RunState.PAUSED
                self._resume.wait()
                self._state = RunState.RUNNING
                continue
            if not heap or heap[0][0] >= horizon:
                break
            event_time, _, _, event = heappop(heap)
            if event_time < now:
                # Scheduled by another thread against a clock that has
                # since moved on: it happens now.
                event.time = now
            else:
                now = self._now = event_time
            self._last_event_time = now
            chain = self._chains[_BEFORE_EVENT]
            if chain:
                ctx.now = now
                ctx.pos = HookPos.BEFORE_EVENT
                ctx.item = event
                ctx.skip = False
                for hook in chain:
                    hook(ctx)
                if ctx.skip:
                    continue
            event.handler.handle(event)
            self._event_count += 1
            # The handler may have re-pushed *event* (a progressing
            # tick): AFTER_EVENT hooks read ctx.now, not event.time.
            chain = self._chains[_AFTER_EVENT]
            if chain:
                ctx.now = now
                ctx.pos = HookPos.AFTER_EVENT
                ctx.item = event
                ctx.skip = False
                for hook in chain:
                    hook(ctx)
            if self._throttle_delay:
                time.sleep(self._throttle_delay)

    def run_window(self, horizon: VTimeInSec) -> int:
        """Process every event strictly before *horizon*, then stop.

        The conservative-sync primitive of the sharded execution mode: a
        shard granted the horizon ``T_min + W`` (minimum next event time
        across shards plus the minimum cross-shard latency) may safely
        run every event with ``time < horizon``, because no boundary
        message from another shard can arrive earlier.  Events *at* the
        horizon belong to the next window — cross-shard deliveries
        injected at exactly ``T_min + W`` must order against them.

        On return the clock has advanced to at least *horizon* (even if
        the queue ran dry earlier), so post-window injections and wakes
        can never be scheduled in the past.  The engine stays
        ``RUNNING`` between windows — monitors should see one live
        simulation, not a dry/running flap at every barrier.  Honors
        pause requests and :meth:`terminate` like :meth:`run`.

        Returns the number of events processed in this window.
        """
        if self._terminated:
            return 0
        if self._state is RunState.IDLE:
            _register_sim_thread("simulation")
            self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_START))
        self._state = RunState.RUNNING
        before = self._event_count
        self._process_before(horizon)
        if self._terminated:
            self._state = RunState.ENDED
            self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_END))
        else:
            self._now = max(self._now, horizon)
        return self._event_count - before

    def finish_windows(self) -> None:
        """Mark the end of windowed execution (queue empty, run done)."""
        if self._state is RunState.RUNNING:
            self._state = RunState.DRY
            self.invoke_hooks(HookCtx(self, self._now, HookPos.ENGINE_DRY))

    # ------------------------------------------------------------------
    # Pickling (checkpoint/restore)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Checkpoint view of the engine: clock, queue and counters.

        Threading primitives belong to the *process*, not the simulated
        state, and a snapshot is only taken at an event boundary (paused
        or dry), so dropping them loses nothing.
        """
        state = super().__getstate__()
        state.pop("_resume", None)
        state["_sim_thread"] = None  # idents mean nothing elsewhere
        return state

    def __setstate__(self, state: dict) -> None:
        super().__setstate__(state)
        self._resume = threading.Event()
        self._resume.set()
        # The restored engine is runnable regardless of how the
        # checkpointed one was parked (paused, mid-run, terminated) or
        # slowed down (set_throttle: a monitor's pace, not state).
        self._pause_requested = False
        self._terminated = False
        self._throttle_delay = 0.0
        self._state = RunState.IDLE

    def run_until(self, t: VTimeInSec) -> None:
        """Process events with time ≤ *t* (useful in tests).

        Does not honor pause requests; intended for single-threaded use.
        """
        self._state = RunState.RUNNING
        self._process_before(math.nextafter(t, math.inf), pausable=False)
        self._now = max(self._now, t)
        self._state = RunState.DRY
