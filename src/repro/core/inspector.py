"""Reflection over simulation components.

The paper's ``RegisterComponent`` "uses reflection to discover buffers
(for the bottleneck analysis) and fields (for simulation monitoring) of
these components.  Reflection eliminates the need to modify existing
code and for users to manually select fields to monitor."

This module is that reflection layer, in Python: given any object it

* serializes its public fields into JSON-safe structures (name, type,
  value — container fields report sizes plus a bounded preview),
* discovers every reachable :class:`~repro.akita.buffer.Buffer`
  (the analyzer's input), and
* resolves dotted value paths (``"mshr.size"``) for time-series
  monitoring, reducing containers to their length as the paper's value
  plots do.
"""

from __future__ import annotations

import gc
import types
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..akita.buffer import Buffer
from ..akita.engine import Engine
from ..akita.hooks import declared_names, instance_fields
from ..akita.port import Port

#: Recursion limit when serializing nested objects.
MAX_DEPTH = 3
#: Max elements shown when previewing containers.
MAX_PREVIEW = 8
#: Attribute-walk limit when hunting for buffers.
MAX_BUFFER_DEPTH = 4

_SCALAR_TYPES = (int, float, bool, str, type(None))
#: Where the buffer hunt turns back: the engine (framework plumbing
#: every component points at) and code, which holds no simulated state.
_TURN_BACK = (Engine, type, types.FunctionType, types.MethodType,
              types.BuiltinFunctionType, types.ModuleType)


def _public_attrs(obj: Any) -> Iterator[Tuple[str, Any]]:
    """Instance attributes + class properties, skipping private names."""
    attrs = instance_fields(obj)
    for name in declared_names(type(obj))[1]:
        if name not in attrs:
            try:
                attrs[name] = getattr(obj, name)
            except Exception:  # property may need unavailable state
                continue
    for name in sorted(attrs):
        if name.startswith("_"):
            continue
        # The engine back-reference is framework plumbing, not component
        # state; showing it would drown the panel in engine internals.
        if isinstance(attrs[name], Engine):
            continue
        yield name, attrs[name]


def serialize_value(value: Any, depth: int = 0) -> Any:
    """JSON-safe rendering of one value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, Buffer):
        return {"__kind__": "buffer", "name": value.name,
                "size": value.size, "capacity": value.capacity,
                "fullness": round(value.fullness, 4)}
    if isinstance(value, Port):
        return {"__kind__": "port", "name": value.name,
                "buffer": serialize_value(value.buf, depth + 1),
                "sent": value.num_sent, "delivered": value.num_delivered}
    if isinstance(value, dict):
        preview = {}
        for i, (k, v) in enumerate(value.items()):
            if i >= MAX_PREVIEW:
                break
            preview[str(k)] = serialize_value(v, depth + 1) \
                if depth < MAX_DEPTH else type(v).__name__
        return {"__kind__": "dict", "size": len(value),
                "preview": preview}
    if isinstance(value, (list, tuple, set, frozenset)) or (
            hasattr(value, "__len__") and hasattr(value, "__iter__")
            and not hasattr(value, "items")):
        try:
            size = len(value)
        except TypeError:
            return type(value).__name__
        preview = []
        for i, item in enumerate(value):
            if i >= MAX_PREVIEW:
                break
            preview.append(serialize_value(item, depth + 1)
                           if depth < MAX_DEPTH else type(item).__name__)
        return {"__kind__": "list", "size": size, "preview": preview}
    if callable(value):
        return f"<callable {getattr(value, '__name__', '?')}>"
    if depth >= MAX_DEPTH:
        return type(value).__name__
    return {"__kind__": "object", "type": type(value).__name__,
            "fields": {name: serialize_value(v, depth + 1)
                       for name, v in _public_attrs(value)}}


def serialize_component(component: Any) -> Dict[str, Any]:
    """Serialize one component for the monitoring panel (paper Fig. 2 D).

    The monitor serializes exactly one component per request (the fine
    granularity §VII credits for the low overhead).
    """
    fields = {}
    for name, value in _public_attrs(component):
        fields[name] = serialize_value(value, depth=1)
    return {
        "name": getattr(component, "name", type(component).__name__),
        "type": type(component).__name__,
        "fields": fields,
    }


def discover_buffers(component: Any) -> List[Buffer]:
    """Find every Buffer reachable from *component* (ports + internals).

    The walk follows attribute *values* (``gc.get_referents``) and never
    asks an object for its ``__dict__``: see
    :func:`repro.akita.hooks.instance_fields` for what that would cost
    the simulation.  Names are not needed — a
    buffer carries its own.

    It may run on a server thread beside a live engine, so containers
    are iterated over atomic copies (``list(d.values())``,
    ``tuple(seq)``): a simulation thread resizing one mid-walk must
    not raise "changed size during iteration" here.
    """
    found: List[Buffer] = []
    seen: set = set()

    def walk(obj: Any, depth: int) -> None:
        oid = id(obj)
        if oid in seen or depth > MAX_BUFFER_DEPTH:
            return
        seen.add(oid)
        if isinstance(obj, Buffer):
            found.append(obj)
            return
        if isinstance(obj, _SCALAR_TYPES):
            return
        if isinstance(obj, Port):
            walk(obj.buf, depth + 1)
            return
        if isinstance(obj, dict):
            for v in list(obj.values()):
                walk(v, depth + 1)
            return
        if isinstance(obj, (list, tuple, set, frozenset)):
            for v in tuple(obj):
                walk(v, depth + 1)
            return
        if isinstance(obj, _TURN_BACK):
            return
        if type(obj).__dictoffset__:  # instances carry attributes
            for v in gc.get_referents(obj):
                walk(v, depth + 1)

    walk(component, 0)
    # Deduplicate, preserving discovery order.
    unique, ids = [], set()
    for buf in found:
        if id(buf) not in ids:
            ids.add(id(buf))
            unique.append(buf)
    return unique


def resolve_path(component: Any, path: str) -> Any:
    """Follow a dotted attribute path from *component*.

    Supports ``a.b.c`` attribute hops and ``name[3]`` indexing into
    sequences.  Raises AttributeError/KeyError/IndexError on bad paths.
    """
    obj = component
    for segment in path.split("."):
        if "[" in segment:
            base, rest = segment.split("[", 1)
            if base:
                obj = getattr(obj, base)
            for index in rest.rstrip("]").split("]["):
                obj = obj[int(index)]
        else:
            obj = getattr(obj, segment)
    return obj


def numeric_value(value: Any) -> Optional[float]:
    """Reduce a monitored value to the number the time chart plots.

    Numbers plot as themselves; containers (and buffers) plot as their
    size, as described in §IV-C ("the plot shows the container sizes").
    Non-numeric leaves return None.
    """
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, Buffer):
        return float(value.size)
    if isinstance(value, (str, bytes)):
        return None  # text length is not a meaningful hardware metric
    try:
        return float(len(value))
    except TypeError:
        return None


def watchable_paths(component: Any) -> List[str]:
    """Paths on *component* whose values can be plotted over time."""
    paths = []
    for name, value in _public_attrs(component):
        if numeric_value(value) is not None:
            paths.append(name)
        elif isinstance(value, Port):
            paths.append(f"{name}.buf")
        elif type(value).__dictoffset__:
            for sub, subval in _public_attrs(value):
                if numeric_value(subval) is not None:
                    paths.append(f"{name}.{sub}")
    return paths
