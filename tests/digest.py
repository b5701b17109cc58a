"""A canonical hash of a paused or finished simulation.

``digest(simulation)`` hashes the engine's time and every registered
component's fields, components in name order and fields read through
:func:`repro.akita.hooks.instance_fields`, the reader checkpointing and
the component panel use.  A component's own ports are written in full
(their buffers hold the messages that wait in them); any other port or
component is written as its name, messages as their slots, sequences in
order (an ``OrderedDict`` too: its order is a cache's LRU state), other
dicts and sets sorted, and code as its qualified name.

Left out, as how a run was driven rather than what it computed: tick
bookkeeping, hooks, back-references and the engine's event count.  Two
runs of one spec digest alike whatever watched them.
"""

import hashlib
import types
from collections import OrderedDict, deque
from typing import Any

from repro.akita.component import Component
from repro.akita.hooks import instance_fields
from repro.akita.port import Port

#: The fields no digest reads.
SKIPPED = frozenset({
    "tick_count", "_last_tick_time", "_next_scheduled", "_near_tick",
    "_hooks", "_chains",
    "_engine", "component", "_connection",
})
_CODE = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
         types.GeneratorType, type)


def digest(simulation) -> str:
    """The SHA-256 of *simulation*'s state, as hex."""
    state = [repr(simulation.engine.now)]
    for component in sorted(simulation.components, key=lambda c: c.name):
        state.append(repr(_canonical(component, component, set(), True)))
    return hashlib.sha256("\n".join(state).encode()).hexdigest()


def _canonical(value: Any, owner: Component, open_: set,
               top: bool = False) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, _CODE):
        return ("code", getattr(value, "__qualname__", type(value).__name__))
    if isinstance(value, Port) and value.component is not owner \
            or isinstance(value, Component) and not top:
        return (type(value).__name__, value.name)
    if id(value) in open_:  # a cycle: name the type, do not recurse
        return ("cycle", type(value).__name__)
    open_.add(id(value))
    try:
        if isinstance(value, (list, tuple, deque, OrderedDict)):
            # An OrderedDict's order is state: a cache set's LRU order.
            items = value.items() if isinstance(value, dict) else value
            return (type(value).__name__,
                    [_canonical(v, owner, open_) for v in items])
        if isinstance(value, dict):
            return ("dict", sorted(
                ((_canonical(k, owner, open_), _canonical(v, owner, open_))
                 for k, v in value.items()), key=repr))
        if isinstance(value, (set, frozenset)):
            return ("set", sorted((_canonical(v, owner, open_)
                                   for v in value), key=repr))
        return (type(value).__name__, [
            (name, _canonical(field, owner, open_))
            for name, field in sorted(instance_fields(value).items())
            if name not in SKIPPED])
    finally:
        open_.discard(id(value))
