"""Deterministic fault-injection primitives (framework layer).

AkitaRTM's diagnostics — the hang heuristic, the fail-fast alerts, the
bottleneck analyzer — exist to catch misbehaving simulations, yet a
healthy repository only ever exercises them against organically-arising
bugs.  :class:`FaultInjector` closes that gap: it induces the paper's
failure classes *on demand*, deterministically, without modifying a
single simulator component.

Every fault is expressed through the framework's hook system:

* **drop / delay / kill_port** attach one ``CONN_TRANSFER`` hook per
  connection and rewrite the :class:`~repro.akita.connection.Transfer`
  plan (lose the message, or push its delivery later);
* **stall** attaches one ``BEFORE_EVENT`` hook to the engine and
  suppresses matching components' tick events (the component appears to
  freeze mid-simulation — the write-buffer hang of case study 2);
* **pin_buffer** schedules virtual-time events that hold matching
  buffers at capacity, so every sender sees permanent backpressure.

Determinism: fault decisions consume a private seeded
:class:`random.Random`, and are made in event order — which the engine
already guarantees is reproducible — so two runs with the same seed
inject the identical fault sequence.

Zero overhead when idle: with no injector registered, no hooks exist,
and the engine/connection fast paths skip hook-context construction
entirely.

Also the RTM server's faults plane: :func:`ensure_injector`, :data:`ROUTES`.
"""

from __future__ import annotations

import fnmatch
import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from ..akita.buffer import Buffer
from ..akita.component import TickingComponent
from ..akita.errors import SchedulingError
from ..akita.event import CallbackEvent, TickEvent
from ..akita.hooks import HookCtx, HookPos
from ..akita.simulation import Simulation
from ..core.http import BadRequest, NotFound, float_param, int_param


class FaultKind(str, Enum):
    """The failure classes the injector can induce."""

    DROP = "drop"              #: lose matching messages in transit
    DELAY = "delay"            #: deliver matching messages late
    STALL = "stall"            #: suppress a component's tick handler
    PIN_BUFFER = "pin_buffer"  #: hold a buffer at capacity
    KILL_PORT = "kill_port"    #: drop all traffic touching a port

#: Kinds that act on messages in transit (connection hook).
_MESSAGE_KINDS = (FaultKind.DROP, FaultKind.DELAY, FaultKind.KILL_PORT)


@dataclass
class FaultSpec:
    """One declarative fault.

    Parameters
    ----------
    kind:
        What to break (:class:`FaultKind`).
    target:
        Glob pattern (``*``/``?``) over hierarchical names — port names
        for message faults, component names for stalls, buffer names
        for pins (e.g. ``"GPU[0].RDMA*"``, ``"*WriteBuffer*"``).
        Square brackets match literally, since the simulator's names
        use them for array indices.
    start, end:
        Virtual-time window in which the fault is live.  ``end=None``
        means forever.
    probability:
        For ``drop``: per-message loss probability.  Other kinds apply
        unconditionally.
    delay:
        For ``delay``: extra in-transit latency in virtual seconds.
    """

    kind: FaultKind
    target: str
    start: float = 0.0
    end: Optional[float] = None
    probability: float = 1.0
    delay: float = 0.0
    label: str = ""
    #: Handed out by the :class:`FaultInjector` that arms the spec.
    id: int = field(default=0, init=False)
    #: Runtime counter: how many times this fault actually bit.
    applied_count: int = 0

    def __post_init__(self) -> None:
        self.kind = FaultKind(self.kind)
        if not self.target:
            raise ValueError("fault needs a target pattern")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.delay < 0.0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.end is not None and self.end < self.start:
            raise ValueError(
                f"fault window ends ({self.end}) before it starts "
                f"({self.start})")
        if not self.label:
            window = f"t>={self.start:g}" if self.end is None \
                else f"{self.start:g}<=t<{self.end:g}"
            self.label = f"{self.kind.value}({self.target}) {window}"
        # "[" opens an fnmatch character class, but simulator names use
        # brackets for array indices — make them match literally.
        self._glob = self.target.replace("[", "[[]")

    def active(self, now: float) -> bool:
        """True while *now* falls inside the fault window."""
        return now >= self.start and (self.end is None or now < self.end)

    def matches(self, name: str) -> bool:
        return fnmatch.fnmatchcase(name, self._glob)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "kind": self.kind.value,
            "target": self.target,
            "start": self.start,
            "end": self.end,
            "probability": self.probability,
            "delay": self.delay,
            "label": self.label,
            "applied_count": self.applied_count,
        }


class FaultInjector:
    """Arms :class:`FaultSpec` objects against one simulation.

    The injector attaches hooks lazily — the first message fault hooks
    the connections, the first stall fault hooks the engine — and
    detaches them when the last fault of that class is revoked, so an
    idle injector costs exactly nothing.
    """

    def __init__(self, simulation: Simulation, seed: int = 0):
        self.simulation = simulation
        self.seed = seed
        self._rng = random.Random(seed)
        self._specs: Dict[int, FaultSpec] = {}
        self._ids = itertools.count(1)
        self._message_faults: List[FaultSpec] = []
        self._stall_faults: List[FaultSpec] = []
        self._pinned: Dict[int, List[Buffer]] = {}
        self._conn_hooked = False
        self._engine_hooked = False

    # ------------------------------------------------------------------
    # Arming / revoking
    # ------------------------------------------------------------------
    def inject(self, spec: FaultSpec) -> FaultSpec:
        """Arm *spec* — ``FaultSpec(kind, target, start, end, ...)``,
        the one way to arm any kind.  Returns it, numbered."""
        spec.id = next(self._ids)
        self._specs[spec.id] = spec
        if spec.kind in _MESSAGE_KINDS:
            self._message_faults.append(spec)
            self._hook_connections()
        elif spec.kind is FaultKind.STALL:
            self._stall_faults.append(spec)
            self._hook_engine()
        elif spec.kind is FaultKind.PIN_BUFFER:
            self._arm_pin(spec)
        return spec

    def revoke(self, spec_id: int) -> bool:
        """Disarm one fault.  Pinned buffers are released immediately."""
        spec = self._specs.pop(spec_id, None)
        if spec is None:
            return False
        if spec in self._message_faults:
            self._message_faults.remove(spec)
            if not self._message_faults:
                self._unhook_connections()
        if spec in self._stall_faults:
            self._stall_faults.remove(spec)
            if not self._stall_faults:
                self._unhook_engine()
        for buf in self._pinned.pop(spec.id, []):
            buf.pin(False)
        return True

    def clear(self) -> None:
        """Disarm everything."""
        for spec_id in list(self._specs):
            self.revoke(spec_id)

    # ------------------------------------------------------------------
    # Introspection (drives /api/faults)
    # ------------------------------------------------------------------
    @property
    def specs(self) -> List[FaultSpec]:
        return list(self._specs.values())

    def spec(self, spec_id: int) -> Optional[FaultSpec]:
        return self._specs.get(spec_id)

    def to_dict(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self._specs.values()]

    def stats(self) -> Dict[str, Any]:
        """Aggregate counters for dashboards and campaign reports."""
        return {
            "seed": self.seed,
            "armed": len(self._specs),
            "applied_total": sum(s.applied_count
                                 for s in self._specs.values()),
            "messages_dropped": sum(c.dropped_count
                                    for c in self.simulation.connections),
            "pinned_buffers": sorted(
                b.name for bufs in self._pinned.values() for b in bufs
                if b.pinned),
        }

    # ------------------------------------------------------------------
    # Hook plumbing
    # ------------------------------------------------------------------
    def _hook_connections(self) -> None:
        if self._conn_hooked:
            return
        for conn in self.simulation.connections:
            conn.accept_hook(self._on_transfer, (HookPos.CONN_TRANSFER,))
        self._conn_hooked = True

    def _unhook_connections(self) -> None:
        if not self._conn_hooked:
            return
        for conn in self.simulation.connections:
            conn.remove_hook(self._on_transfer)
        self._conn_hooked = False

    def _hook_engine(self) -> None:
        if self._engine_hooked:
            return
        self.simulation.engine.accept_hook(self._on_before_event,
                                           (HookPos.BEFORE_EVENT,))
        self._engine_hooked = True

    def _unhook_engine(self) -> None:
        if not self._engine_hooked:
            return
        self.simulation.engine.remove_hook(self._on_before_event)
        self._engine_hooked = False

    # -- message faults (connection hook) --------------------------------
    def _on_transfer(self, ctx: HookCtx) -> None:
        transfer = ctx.item
        msg = transfer.msg
        src_name = msg.src.name if msg.src is not None else ""
        dst_name = msg.dst.name if msg.dst is not None else ""
        for spec in self._message_faults:
            if not spec.active(ctx.now):
                continue
            if not (spec.matches(dst_name) or spec.matches(src_name)):
                continue
            if spec.kind is FaultKind.KILL_PORT:
                transfer.drop = True
                spec.applied_count += 1
                return
            if spec.kind is FaultKind.DROP:
                if self._rng.random() < spec.probability:
                    transfer.drop = True
                    spec.applied_count += 1
                    return
            elif spec.kind is FaultKind.DELAY:
                transfer.deliver_at += spec.delay
                spec.applied_count += 1

    # -- stall faults (engine hook) --------------------------------------
    def _on_before_event(self, ctx: HookCtx) -> None:
        event = ctx.item
        if not isinstance(event, TickEvent):
            return
        handler = event.handler
        name = getattr(handler, "name", "")
        for spec in self._stall_faults:
            if spec.active(ctx.now) and spec.matches(name):
                ctx.skip = True
                spec.applied_count += 1
                if isinstance(handler, TickingComponent):
                    # Leave the component in the wakeable "asleep" state:
                    # a later notify or the RTM Tick button can schedule
                    # a fresh tick, which succeeds once the window ends.
                    handler._next_scheduled = None
                return

    # -- buffer pinning (virtual-time events) ----------------------------
    def _arm_pin(self, spec: FaultSpec) -> None:
        targets = self._matching_buffers(spec)
        if not targets:
            raise ValueError(
                f"no buffer matches pattern {spec.target!r}")
        self._pinned[spec.id] = targets
        engine = self.simulation.engine

        def _apply(_event=None, pinned=True) -> None:
            if spec.id not in self._specs and pinned:
                return  # revoked before its window opened
            for buf in targets:
                buf.pin(pinned)
            spec.applied_count += len(targets)

        if spec.start <= engine.now:
            _apply()
        else:
            try:
                engine.schedule(CallbackEvent(
                    spec.start, lambda e: _apply(e, True)))
            except SchedulingError:
                _apply()  # engine crossed spec.start while we armed
        if spec.end is not None:
            try:
                engine.schedule(CallbackEvent(
                    max(spec.end, engine.now), lambda e: _apply(e, False)))
            except SchedulingError:
                _apply(pinned=False)

    def _matching_buffers(self, spec: FaultSpec) -> List[Buffer]:
        from ..core.inspector import discover_buffers  # lazy: no cycle
        found: List[Buffer] = []
        seen: set = set()
        for component in self.simulation.components:
            for buf in discover_buffers(component):
                if id(buf) not in seen and spec.matches(buf.name):
                    seen.add(id(buf))
                    found.append(buf)
        return found


# -- the faults plane --------------------------------------------------
def ensure_injector(monitor, seed: int = 0) -> FaultInjector:
    """``Monitor.ensure_injector``: the monitor's injector, created on
    first use."""
    if monitor.injector is None:
        if monitor.simulation is None:
            raise RuntimeError(
                "fault injection needs a registered simulation")
        monitor.injector = FaultInjector(monitor.simulation, seed)
    return monitor.injector


def _armed(server, params):
    injector = server.monitor.injector
    return {"armed": injector is not None,
            "faults": injector.to_dict() if injector else [],
            "stats": injector.stats() if injector else {}}


def _arm(server, params):
    """Arm one fault: ``kind`` + ``target`` are required."""
    monitor = server.monitor
    kind = params.get("kind", "")
    target = params.get("target", "")
    if kind not in [k.value for k in FaultKind]:
        raise BadRequest(f"kind must be one of "
                         f"{sorted(k.value for k in FaultKind)}, "
                         f"got {kind!r}")
    if not target:
        raise BadRequest("parameter 'target' is required")
    try:
        injector = monitor.ensure_injector(
            seed=int_param(params, "seed", 0))
    except RuntimeError as exc:
        raise BadRequest(str(exc)) from None
    try:
        spec = injector.inject(FaultSpec(
            FaultKind(kind), target,
            start=float_param(params, "start", 0.0),
            end=float_param(params, "end"),
            probability=float_param(params, "probability", 1.0),
            delay=float_param(params, "delay", 0.0)))
    except ValueError as exc:
        raise BadRequest(str(exc)) from None
    return spec.to_dict()


def _revoke(server, params):
    spec_id = int_param(params, "id", 0)
    injector = server.monitor.injector
    if injector is None or not injector.revoke(spec_id):
        raise NotFound(f"unknown fault id {spec_id}")
    return {"removed": True}


ROUTES = (
    ("GET", "/api/faults", _armed, "armed fault specs + stats"),
    ("POST", "/api/faults?kind&target&seed&start&end&probability&delay",
     _arm, "arm a fault (drop/delay/stall...)"),
    ("DELETE", "/api/faults?id", _revoke, "disarm a fault"),
)
