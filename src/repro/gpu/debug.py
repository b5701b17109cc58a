"""A scriptable step debugger for ticking components.

Case study 2 pairs AkitaRTM with a GDB-style debugger (Delve): set a
breakpoint on a component's ``Tick`` function, wake the component from
the monitor, and step through to see which send cannot proceed.  This
module is the programmatic equivalent for this simulator: it wraps a
component's :meth:`tick`, records a state snapshot around every
invocation, and can drive the engine one tick at a time.

Typical hang-debugging flow::

    stepper = TickStepper(l2)
    record = stepper.step()          # wake + run exactly one tick
    print(record.made_progress)      # False: the component is stuck
    print(record.blocked_on)         # "send eviction to write buffer..."
    print(record.buffer_deltas)      # {} — nothing moved
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..akita.component import TickingComponent

#: Virtual seconds :meth:`TickStepper.step` waits for its tick.
_STEP_HORIZON = 1e-3


@dataclass
class TickRecord:
    """Observation of one stepped tick."""

    time: float
    made_progress: bool
    blocked_on: Optional[str]
    #: port buffer name -> (size before, size after)
    buffer_levels: Dict[str, tuple] = field(default_factory=dict)

    @property
    def buffer_deltas(self) -> Dict[str, int]:
        """Buffers whose occupancy changed during the tick."""
        return {name: after - before
                for name, (before, after) in self.buffer_levels.items()
                if after != before}


class TickStepper:
    """Breakpoint-on-Tick for one component."""

    def __init__(self, component: TickingComponent):
        """*component* is the (possibly sleeping) component to step."""
        self.component = component
        self.records: List[TickRecord] = []
        self._original_tick = component.tick
        self._installed = False

    # -- breakpoint installation ------------------------------------------
    def install(self) -> None:
        """Wrap the component's tick (set the breakpoint).  Idempotent."""
        if self._installed:
            return

        def traced_tick() -> bool:
            before = {p.buf.name: p.buf.size
                      for p in self.component.ports}
            progress = self._original_tick()
            record = TickRecord(
                time=self.component.engine.now,
                made_progress=progress,
                blocked_on=getattr(self.component, "blocked_on", None),
                buffer_levels={
                    name: (before[name], p.buf.size)
                    for name, p in zip(before,
                                       self.component.ports)},
            )
            self.records.append(record)
            return progress

        self.component.tick = traced_tick  # type: ignore[method-assign]
        self._installed = True

    def uninstall(self) -> None:
        """Remove the breakpoint, restoring class-level tick lookup."""
        if self._installed:
            try:  # not ``__dict__.pop``: that slows the instance for good
                del self.component.tick
            except AttributeError:
                pass
            self._installed = False

    def __enter__(self) -> "TickStepper":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- stepping -----------------------------------------------------------
    def step(self) -> TickRecord:
        """Wake the component and run the engine until it has ticked
        once more (the paper's Tick-button + line-step loop).

        Returns the tick's record.  Works on a dry (hung) engine: the
        injected tick event is exactly what the *Kick Start* button
        replays.
        """
        self.install()
        engine = self.component.engine
        target = len(self.records) + 1
        deadline = engine.now + _STEP_HORIZON
        while len(self.records) < target:
            self.component.tick_later()
            next_time = min(self.component._next_scheduled or deadline,
                            deadline)
            engine.run_until(next_time)
            if engine.now >= deadline:
                raise TimeoutError(
                    f"{self.component.name} did not tick within "
                    f"{_STEP_HORIZON}s of virtual time")
        return self.records[-1]

    # -- analysis ------------------------------------------------------------
    @property
    def stuck(self) -> bool:
        """True if the last stepped tick made no progress."""
        return bool(self.records) and not self.records[-1].made_progress

    def diagnosis(self) -> Optional[str]:
        """The most recent block reason observed, if any."""
        for record in reversed(self.records):
            if record.blocked_on:
                return record.blocked_on
        return None
