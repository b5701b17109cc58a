"""Hang detection (task **T3**).

Case study 2 identifies a hang by three concurrent signals:

1. the progress bars stop moving,
2. the simulation time stops changing, and
3. CPU usage falls well below 100%.

:class:`HangDetector` encodes that heuristic over periodic snapshots of
(simulation time, event count, CPU%).  A hang verdict also carries the
non-empty-buffer snapshot, which is the debugging entry point the case
study uses ("if there is any content in a buffer, we know the buffer
owner cannot proceed").
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from ..metrics import MetricRegistry
from .bottleneck import BufferAnalyzer, BufferRow


#: CPU% below which a stall is corroborated (an engine that is busy
#: computing but not advancing time is *slow*, not hung).
CPU_THRESHOLD = 50.0


class NoSimulation(RuntimeError):
    """A hang verdict was asked of a monitor with no simulation yet."""


@dataclass
class HangStatus:
    """The detector's verdict."""

    hung: bool
    stalled_wall_seconds: float
    sim_time: float
    run_state: str
    cpu_percent: float
    stuck_buffers: List[BufferRow] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "hung": self.hung,
            "stalled_wall_seconds": round(self.stalled_wall_seconds, 2),
            "sim_time": self.sim_time,
            "run_state": self.run_state,
            "cpu_percent": round(self.cpu_percent, 1),
            "stuck_buffers": [b.to_dict() for b in self.stuck_buffers],
        }


class HangDetector:
    """Stall heuristic over (wall time, sim time) snapshots."""

    def __init__(self, simulation, analyzer: BufferAnalyzer,
                 stall_threshold: float = 2.0,
                 registry: Optional[MetricRegistry] = None):
        """
        Parameters
        ----------
        simulation:
            The :class:`~repro.akita.simulation.Simulation` under watch.
        analyzer:
            Buffer analyzer used for the stuck-buffer snapshot.
        stall_threshold:
            Wall seconds of frozen simulation time before declaring a
            hang.
        """
        self.simulation = simulation
        self.analyzer = analyzer
        self.stall_threshold = stall_threshold
        #: Wall-clock source.  Monotonic, never ``time.time``, whose
        #: NTP/DST jumps would fake or mask stalls; a test replaces it
        #: to walk wall time without sleeping.
        self.clock: Callable[[], float] = time.monotonic
        # (wall, sim_time) history; a couple hundred points suffice.
        self._history: Deque[Tuple[float, float]] = deque(maxlen=512)
        self._g_stalled = self._g_hung = None
        if registry is not None:
            self._g_stalled = registry.gauge(
                "rtm_hang_stalled_seconds",
                "Wall seconds since simulation time last advanced.")
            self._g_hung = registry.gauge(
                "rtm_hang_hung",
                "1 while the hang heuristic's verdict is hung, else 0.")

    def record(self, cpu_percent: float = 0.0) -> None:
        """Append a snapshot (called by the monitor's sampler thread)."""
        self._history.append((self.clock(),
                              self.simulation.engine.now))
        self._last_cpu = cpu_percent

    def stalled_for(self) -> float:
        """Wall seconds since the simulation time last advanced."""
        if not self._history:
            return 0.0
        # A snapshot: other threads append while this walks.
        history = tuple(self._history)
        newest_wall, newest_sim = history[-1]
        stall_start = newest_wall
        for wall, sim in reversed(history):
            if sim < newest_sim - 1e-15:
                break
            stall_start = wall
        return newest_wall - stall_start

    def check(self, cpu_percent: Optional[float] = None) -> HangStatus:
        """Evaluate the heuristic now."""
        self.record(cpu_percent or 0.0)
        state = self.simulation.run_state
        stalled = self.stalled_for()
        cpu = cpu_percent if cpu_percent is not None \
            else getattr(self, "_last_cpu", 0.0)

        if state == "hung":
            # The run loop itself classified it: queue dry, workload
            # incomplete.  Definitive.
            hung = True
        elif state in ("completed", "aborted", "idle"):
            hung = False
        else:
            hung = (stalled >= self.stall_threshold
                    and cpu < CPU_THRESHOLD)
        stuck = self.analyzer.non_empty() if hung else []
        if self._g_stalled is not None:
            self._g_stalled.set(stalled)
            self._g_hung.set(1.0 if hung else 0.0)
        return HangStatus(hung, stalled, self.simulation.engine.now,
                          state, cpu, stuck)
