"""A minimal hook system for observing simulation internals.

Hooks are how AkitaRTM (and any other instrumentation) observes the engine
and components without modifying them.  Hooks must be cheap: they run on
the simulation thread.

Dispatch is per position.  Every :class:`Hookable` keeps one
precomputed *chain* (a tuple of callables) per :class:`HookPos`; a
firing site reads the chain of its own position and does nothing at all
when that chain is empty, whatever is subscribed elsewhere.  A hook
attached with ``positions=`` is entered only at those positions.

The calling convention belongs to the position:

* The five **component positions** — ``PORT_SEND``, ``PORT_DELIVER``,
  ``PORT_RETRIEVE`` (subject: the port, item: the message) and
  ``TASK_BEGIN``, ``TASK_END`` (subject: the component, item: a
  :class:`TaskInfo`) — call ``hook(subject, now, item)``.  They fire
  per message, an observer there only ever reads those three values,
  and a ctx filled by the site and read back by the hook was a frame
  and a dozen attribute writes per fact.  The firing site is its own
  loop, behind the one subscript-and-test an unobserved site costs::

      if component._chains[_PORT_SEND]:             # _PORT_SEND: an int
          for hook in component._chains[_PORT_SEND]:
              hook(port, now, msg)

* **Engine and connection positions** call ``hook(ctx)`` with a
  :class:`HookCtx`: ``BEFORE_EVENT`` answers through ``ctx.skip``,
  ``CONN_TRANSFER`` through the :class:`~repro.akita.connection.Transfer`
  plan in ``ctx.item``, and one hook subscribed to several engine
  positions tells them apart by ``ctx.pos``.  Hooks must read the ctx
  synchronously and never retain it: the engine's event loop reuses one
  ctx object across invocations, mutating its fields in place, so a
  stored reference would silently change under the observer.

An ``AFTER_EVENT`` hook sees the event as its handler left it.  A tick
that made progress re-pushes the very ``TickEvent`` it was handed, so
there ``ctx.item`` is already the next cycle's pending tick and
``ctx.item.time`` reads that cycle; the time the event fired is
``ctx.now``.  ``BEFORE_EVENT`` sees every event untouched.
"""

from __future__ import annotations

import enum
import functools
import gc
import threading
import types
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


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
    """Context handed to each hook at an engine or connection position.

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


#: ``hook(ctx)`` or ``hook(subject, now, item)``, by position (module
#: docstring).
Hook = Callable[..., None]

#: ``_chains`` of a hookable nobody observes.
_NO_CHAINS: Tuple[Tuple[Hook, ...], ...] = ((),) * len(HookPos)

# Attaching is rare and may come from any thread (a server thread
# starting the tracer mid-run); one process-wide lock keeps the
# read-modify-write of a subscription list whole without putting a lock
# object on every component.
_ATTACH_LOCK = threading.Lock()


# -- an object's fields, read without its ``__dict__`` ------------------
# CPython 3.11/3.12 keep an instance's attribute values inline until
# something asks for its ``__dict__``; from then on every attribute
# access on it is ~2.8x slower.  Checkpointing (Hookable.__getstate__)
# and the monitor's reflection (repro.core.inspector) read fields here.
_MISSING = object()


@functools.lru_cache(maxsize=None)
def declared_names(cls: type) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(candidate instance-attribute names, property names)`` of
    *cls*, read off the class alone and once per class.

    The candidates are every name the methods of *cls* and its bases
    mention (``co_names``: a superset of what they assign on ``self``)
    that no class in the MRO defines itself, and every dataclass field
    (whose default is a class attribute the instance shadows).
    """
    class_level: set = set()
    mentioned: set = set()
    properties: List[str] = []
    for klass in cls.__mro__:
        for name, member in vars(klass).items():
            class_level.add(name)
            if isinstance(member, property):
                properties.append(name)
                functions = (member.fget, member.fset, member.fdel)
            else:
                functions = (getattr(member, "__func__", member),)
            codes = [f.__code__ for f in functions
                     if isinstance(f, types.FunctionType)]
            while codes:
                code = codes.pop()
                mentioned.update(code.co_names)
                codes.extend(c for c in code.co_consts
                             if isinstance(c, types.CodeType))
    # No dunders: ``__dict__`` is the one name that must not be read.
    names = mentioned - class_level
    if is_dataclass(cls):
        names |= {field.name for field in dataclass_fields(cls)}
    candidates = sorted(name for name in names if not name.startswith("__"))
    return tuple(candidates), tuple(properties)


def instance_fields(obj: Any) -> Dict[str, Any]:
    """*obj*'s instance attributes by name: the names come from the
    class (:func:`declared_names`, or the ``__slots__`` of its MRO), the
    values from ``getattr``, and ``gc.get_referents`` — which lists an
    instance's values without their names — tells whether any was
    missed (assigned from outside the class's code); only then is
    ``__dict__`` read.  Once something has materialised it, the
    referents are that dict and the type, and the dict — it holds every
    found field and is none of their values — is read, not counted."""
    cls = type(obj)
    if not cls.__dictoffset__:
        return {slot: getattr(obj, slot)
                for klass in reversed(cls.__mro__)
                for slot in klass.__dict__.get("__slots__", ())
                if hasattr(obj, slot)}
    fields = {}
    for name in declared_names(cls)[0]:
        value = getattr(obj, name, _MISSING)
        if value is not _MISSING:
            fields[name] = value
    referents = gc.get_referents(obj)
    for ref in referents:
        if type(ref) is dict and fields \
                and not any(ref is value for value in fields.values()) \
                and all(ref.get(name, _MISSING) is value
                        for name, value in fields.items()):
            return dict(sorted(ref.items()))
    # Referents of an instance with inline values: its values + its type.
    if len(fields) != len(referents) - 1:
        fields = dict(vars(obj))
    return fields


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

    def accept_hook(self, hook: Hook,
                    positions: Any = None) -> None:
        """Attach *hook*.

        *positions* is an iterable of the :class:`HookPos` the hook
        wants; it is never invoked anywhere else.  ``None`` subscribes
        to every position this hookable fires.
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
        """Invoke the hooks subscribed to ``ctx.pos`` with *ctx* (engine
        and connection positions)."""
        for hook in self._chains[ctx.pos.index]:
            hook(ctx)

    @property
    def num_hooks(self) -> int:
        return len(self._hooks)

    # -- pickling (checkpoint/restore) ---------------------------------
    # Hooks are monitoring-scoped: they close over tracers, metric
    # registries and injectors that live outside the simulated system.
    # A checkpoint captures the *simulated* state only; whoever restores
    # the snapshot attaches a fresh monitor.  Field by field, never
    # through ``__dict__`` (see instance_fields).
    def __getstate__(self) -> dict:
        state = instance_fields(self)
        for attr in ("_hooks", "_chains"):
            state.pop(attr, None)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._hooks = []
        self._chains = _NO_CHAINS
