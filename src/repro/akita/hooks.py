"""A minimal hook system for observing simulation internals.

Hooks are how AkitaRTM (and any other instrumentation) observes the engine
and components without modifying them.  A :class:`Hookable` object invokes
every attached hook with a :class:`HookCtx` describing what just happened.

The engine fires hooks around each event; components may fire hooks around
message handling.  Hooks must be cheap: they run on the simulation thread.

Hooks must also read the ctx synchronously and never retain it: hot
paths (the engine's event loop) reuse one ctx object across
invocations, mutating its fields in place, so a stored reference would
silently change under the observer.

Dispatch is per position.  Every :class:`Hookable` keeps one
precomputed *chain* (a tuple of callables) per :class:`HookPos`; a
firing site reads the chain of its own position and does nothing at all
when that chain is empty, whatever is subscribed elsewhere::

    chain = component._chains[_PORT_SEND]      # _PORT_SEND: an int
    if chain:
        component.fire_hooks(port, now, HookPos.PORT_SEND, msg)

A hook attached with ``positions=`` is entered only at those positions
and need not look at ``ctx.pos``.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple


class HookPos(enum.Enum):
    """Well-known positions at which hooks fire.

    ``value`` is the position's public name (a metric label);
    ``index`` is its slot in :attr:`Hookable._chains` — firing sites
    bind it to a module constant so the per-event test is an integer
    subscript, never an enum hash.
    """

    def __new__(cls, value: str) -> "HookPos":
        member = object.__new__(cls)
        member._value_ = value
        member.index = len(cls.__members__)
        return member

    BEFORE_EVENT = "before_event"
    AFTER_EVENT = "after_event"
    ENGINE_START = "engine_start"
    ENGINE_PAUSE = "engine_pause"
    ENGINE_CONTINUE = "engine_continue"
    ENGINE_DRY = "engine_dry"  # queue ran empty
    ENGINE_END = "engine_end"
    CONN_TRANSFER = "conn_transfer"  # a connection accepted a message
    CONN_DROP = "conn_drop"  # an in-transit message was dropped (faults)
    PORT_SEND = "port_send"  # a port successfully sent a message
    PORT_DELIVER = "port_deliver"  # a message landed in a port buffer
    PORT_RETRIEVE = "port_retrieve"  # a component consumed a message
    TASK_BEGIN = "task_begin"  # a component started a unit of work
    TASK_END = "task_end"  # a component finished a unit of work


@dataclass(slots=True)
class TaskInfo:
    """Payload of ``TASK_BEGIN`` / ``TASK_END`` hooks.

    Components annotate their units of work (a mapped workgroup, a cache
    miss in flight, an RDMA transfer) with a stable *task_id* so begin
    and end can be paired by observers, plus ``kind``/``what`` metadata
    for display.  Constructed only when a task hook is subscribed.
    """

    task_id: Any
    kind: str = ""
    what: str = ""


@dataclass(slots=True)
class HookCtx:
    """Context handed to each hook invocation.

    Attributes
    ----------
    domain:
        The hookable object that fired the hook (engine, component...).
    now:
        Current virtual time.
    pos:
        Where in the processing flow the hook fired.
    item:
        The subject of the hook (usually the event being processed).
    skip:
        A ``BEFORE_EVENT`` hook may set this to suppress the event: the
        engine discards it without calling its handler.  This is the
        primitive fault injection uses to stall a component's tick
        handler without modifying the component.  Ignored at every
        other position.
    """

    domain: Any
    now: float
    pos: HookPos
    item: Any = None
    skip: bool = False


Hook = Callable[[HookCtx], None]

#: ``_chains`` of a hookable nobody observes.
_NO_CHAINS: Tuple[Tuple[Hook, ...], ...] = ((),) * len(HookPos)

# Attaching is rare and may come from any thread (a server thread
# starting the tracer mid-run); one process-wide lock keeps the
# read-modify-write of a subscription list whole without putting a lock
# object on every component.
_ATTACH_LOCK = threading.Lock()


class Hookable:
    """Mixin that lets observers attach hooks to an object."""

    def __init__(self) -> None:
        # Subscriptions in attach order: (hook, the HookPos.index values
        # it wants, or None for all).
        self._hooks: List[Tuple[Hook, Optional[frozenset]]] = []
        # One tuple of hooks per HookPos.index, replaced wholesale on
        # every attach/detach: a firing site that already fetched a
        # chain keeps iterating a consistent one.
        self._chains = _NO_CHAINS
        self._hook_ctx: Any = None

    def accept_hook(self, hook: Hook,
                    positions: Any = None) -> None:
        """Attach *hook*.

        *positions* is an iterable of the :class:`HookPos` the hook
        wants; it is never invoked anywhere else.  ``None`` subscribes
        to every position.
        """
        wanted = None if positions is None \
            else frozenset(pos.index for pos in positions)
        with _ATTACH_LOCK:
            self._hooks.append((hook, wanted))
            self._rebuild_chains()

    def remove_hook(self, hook: Hook) -> None:
        """Detach *hook*.  Missing hooks are ignored."""
        with _ATTACH_LOCK:
            for i, (attached, _) in enumerate(self._hooks):
                if attached == hook:
                    del self._hooks[i]
                    self._rebuild_chains()
                    return

    def _rebuild_chains(self) -> None:
        if not self._hooks:
            self._chains = _NO_CHAINS
            return
        self._chains = tuple(
            tuple(hook for hook, wanted in self._hooks
                  if wanted is None or index in wanted)
            for index in range(len(HookPos)))

    def invoke_hooks(self, ctx: HookCtx) -> None:
        """Invoke the hooks subscribed to ``ctx.pos`` with *ctx*."""
        for hook in self._chains[ctx.pos.index]:
            hook(ctx)

    def fire_hooks(self, domain: Any, now: float, pos: HookPos,
                   item: Any = None) -> HookCtx:
        """Invoke the hooks subscribed to *pos*, reusing one ctx object
        per hookable.

        The hot-path variant of :meth:`invoke_hooks`: allocating a
        fresh :class:`HookCtx` per port crossing is measurable at
        millions of messages, so the ctx is mutated in place instead.
        Safe because hooks run synchronously on the simulation thread
        and must not retain the ctx (module docstring).  Returns the
        ctx so callers can inspect ``skip``.
        """
        ctx = self._hook_ctx
        if ctx is None:
            ctx = self._hook_ctx = HookCtx(domain, now, pos, item)
        else:
            ctx.domain = domain
            ctx.now = now
            ctx.pos = pos
            ctx.item = item
            ctx.skip = False
        for hook in self._chains[pos.index]:
            hook(ctx)
        return ctx

    @property
    def num_hooks(self) -> int:
        return len(self._hooks)

    # -- pickling (checkpoint/restore) ---------------------------------
    # Hooks are monitoring-scoped: they close over tracers, metric
    # registries and injectors that live outside the simulated system.
    # A checkpoint captures the *simulated* state only; whoever restores
    # the snapshot attaches a fresh monitor.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for attr in ("_hooks", "_chains", "_hook_ctx"):
            state.pop(attr, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._hooks = []
        self._chains = _NO_CHAINS
        self._hook_ctx = None
