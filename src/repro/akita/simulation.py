"""The simulation container: engine + component registry + run loop.

A :class:`Simulation` ties together everything a monitoring tool needs a
handle on: the engine (time, pause/continue), the set of registered
components (for the component tree and buffer discovery), and the
completion condition (so that a dry event queue can be classified as
*finished* versus *hung*).

The run loop implements the paper's "kick start" semantics: if the
engine runs dry while the workload is incomplete — the signature of a
deadlock — the loop can wait for an external kick (AkitaRTM's *Tick*
button schedules fresh tick events and calls :meth:`Simulation.kickstart`)
instead of tearing the process down, letting the user debug in place.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from .component import Component
from .connection import DirectConnection
from .engine import Engine, RunState


class Simulation:
    """A complete simulated system."""

    def __init__(self, name: str = "sim", engine: Optional[Engine] = None):
        self.name = name
        self.engine = engine if engine is not None else Engine()
        self._components: Dict[str, Component] = {}
        self._connections: List[DirectConnection] = []
        self._done_check: Optional[Callable[[], bool]] = None
        self._dry_wake = threading.Event()
        self._aborted = False
        self._completed = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_component(self, component: Component) -> Component:
        """Add *component* to the registry (idempotent by name)."""
        if component.name in self._components:
            raise ValueError(f"duplicate component name {component.name}")
        self._components[component.name] = component
        return component

    def register_connection(self, conn: DirectConnection) -> DirectConnection:
        self._connections.append(conn)
        return conn

    def deregister_component(self, name: str) -> Optional[Component]:
        """Remove a component from the registry (shard pruning: a shard
        builds the full platform for identical naming, then drops the
        components other shards own from its monitored scope).  The
        component object itself survives — dormant proxy replicas keep
        their ports as stable message-address anchors."""
        return self._components.pop(name, None)

    def component(self, name: str) -> Component:
        return self._components[name]

    def has_component(self, name: str) -> bool:
        return name in self._components

    @property
    def components(self) -> List[Component]:
        return list(self._components.values())

    @property
    def component_names(self) -> List[str]:
        return list(self._components.keys())

    @property
    def connections(self) -> List[DirectConnection]:
        return list(self._connections)

    # ------------------------------------------------------------------
    # Completion / state
    # ------------------------------------------------------------------
    def set_completion_check(self, check: Callable[[], bool]) -> None:
        """Install the predicate deciding whether the workload finished.

        Without one, an empty event queue counts as completion (pure DES
        semantics).  The GPU driver installs "all enqueued commands
        completed" here, which is what makes hangs detectable.
        """
        self._done_check = check

    @property
    def done(self) -> bool:
        if self._done_check is not None:
            return self._done_check()
        return self.engine.pending_event_count == 0

    @property
    def completed(self) -> bool:
        """True once a run() observed the completion condition."""
        return self._completed

    @property
    def aborted(self) -> bool:
        return self._aborted

    @property
    def now(self) -> float:
        return self.engine.now

    @property
    def run_state(self) -> str:
        """Monitor-facing state string.

        ``hung`` is reported when the engine is dry but the workload did
        not complete — the situation of the paper's case study 2.
        """
        if self._aborted:
            return "aborted"
        if self._completed:
            return "completed"
        state = self.engine.run_state
        if state == RunState.DRY and not self.done:
            return "hung"
        return state.value

    # ------------------------------------------------------------------
    # Pickling (checkpoint/restore)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the wakeup event; the completion check travels with the
        snapshot (platforms install a picklable one — see
        :class:`repro.gpu.platform._AllDone`)."""
        state = self.__dict__.copy()
        state.pop("_dry_wake", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._dry_wake = threading.Event()
        # A snapshot of an aborted run restores as resumable: abort is a
        # process-level decision (watchdog, operator), not sim state.
        self._aborted = False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def kickstart(self) -> None:
        """Wake a run loop that parked on a dry queue (RTM *Kick Start*)."""
        self._dry_wake.set()

    def mark_completed(self) -> None:
        """Record that the workload finished, for drivers of the engine
        other than :meth:`run` (the shard runtime steps the engine in
        windows and learns about global completion from its
        coordinator)."""
        self._completed = True

    def abort(self) -> None:
        """Terminate the simulation from any thread."""
        self._aborted = True
        self.engine.terminate()
        self._dry_wake.set()

    def run(self, hang_wait: float = 0.0) -> bool:
        """Run the simulation to completion.

        Parameters
        ----------
        hang_wait:
            Wall-clock seconds to wait for a kickstart each time the
            engine runs dry without completing.  ``0`` returns
            immediately (batch mode); a positive value keeps the hung
            simulation alive for interactive debugging.

        Returns
        -------
        bool
            True if the workload completed, False on hang/abort.
        """
        while True:
            self._dry_wake.clear()
            self.engine.run()
            if self._aborted:
                return False
            if self.done:
                self._completed = True
                return True
            if self.engine.pending_event_count > 0:
                # Kicked while we were still draining; keep going.
                continue
            if hang_wait == 0.0:
                return False
            if not self._dry_wake.wait(timeout=hang_wait):
                return False
            if self._aborted:
                return False
