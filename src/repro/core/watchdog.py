"""The simulation watchdog: supervision on top of hang detection.

The paper keeps a human in the loop — the dashboard shows the hang, the
user clicks *Tick* and *Kick Start*, reads the buffer table, and decides
what to do.  :class:`Watchdog` automates that session so an unattended
run (CI, a batch farm) degrades gracefully instead of silently wedging:

1. **Confirm** — poll the :class:`~repro.core.hangdetect.HangDetector`
   until it returns a hang verdict.
2. **Snapshot** — persist the diagnostic state a human would have
   looked at (non-empty buffers, progress bars, profiler top-K,
   overview) to a JSON file.
3. **Recover** — automate the paper's *Tick* button: wake the suspect
   components (owners of the stuck buffers) and kick-start the run
   loop, ``max_tick_retries`` times (0 skips recovery).
4. **Abort** — if the hang survives every retry, terminate the
   simulation cleanly and leave a structured post-mortem report naming
   the stalled buffers, instead of hanging forever.  This is the one
   door to "fail fast" on a hang: ``enable_watchdog(max_tick_retries=0)``.

The watchdog runs on its own daemon thread and talks to the simulation
only through the monitor's thread-safe surface.  Its routes:
:data:`ROUTES`.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional

from ..akita.threads import Periodic
from .atomicio import atomic_write_json
from .hangdetect import NoSimulation
from .http import BadRequest, NotFound, action_param, float_param, int_param

#: How many suspect components one retry wakes.
MAX_SUSPECTS = 8


@dataclass
class WatchdogConfig:
    """Tunables for one :class:`Watchdog`."""

    #: Seconds between hang checks while everything is healthy.
    check_interval: float = 0.25
    #: Automated *Tick* retries before giving up on recovery (0: abort
    #: a confirmed hang at once).
    max_tick_retries: int = 3
    #: Wall seconds to wait after each retry for progress to resume.
    retry_wait: float = 0.5
    #: Where diagnostic snapshots / post-mortems are written
    #: (``None`` = keep them in memory only).
    snapshot_dir: Optional[str] = None
    #: Trailing trace events attached to snapshots and post-mortems
    #: when the monitor has a tracer (0 disables).
    trace_window: int = 64

    def __post_init__(self) -> None:
        # ``not x > 0`` also refuses NaN: a zero or NaN interval would
        # spin the supervision loop beside the simulation.
        if not (self.check_interval > 0 and self.retry_wait > 0):
            raise ValueError(
                f"check_interval and retry_wait must be > 0, got "
                f"{self.check_interval!r} and {self.retry_wait!r}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class Watchdog:
    """Supervises one monitored simulation (see module docstring)."""

    #: Lifecycle states, in the order they normally occur.
    STATES = ("idle", "watching", "recovering", "recovered", "aborted",
              "stopped")

    def __init__(self, monitor, config: Optional[WatchdogConfig] = None):
        self.monitor = monitor
        self.config = config or WatchdogConfig()
        self.state = "idle"
        self.report: Optional[Dict[str, Any]] = None
        self.hang_count = 0
        self.loop = Periodic("rtm-watchdog", self.config.check_interval,
                             self._check)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start supervising (idempotent)."""
        if not self.loop.running:
            self.state = "watching"
        self.loop.start()

    def stop(self) -> None:
        """Stop supervising.  Does not touch the simulation."""
        self.loop.stop()
        if self.state == "watching":
            self.state = "stopped"

    @property
    def running(self) -> bool:
        return self.loop.running

    def to_dict(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "running": self.running,
            "hang_count": self.hang_count,
            "config": self.config.to_dict(),
            "report": self.report,
            "loop": self.loop.status(),
        }

    # ------------------------------------------------------------------
    # The supervision loop
    # ------------------------------------------------------------------
    def _check(self) -> None:
        try:
            status = self.monitor.hang_status()
        except NoSimulation:
            return  # nothing to supervise yet
        if not status.hung:
            return
        self.hang_count += 1
        self._handle_hang(status)
        if self.state == "aborted":
            self.loop.stop()  # nothing left to supervise

    def _handle_hang(self, status) -> None:
        detected_wall = time.monotonic()
        try:
            snapshot = self._diagnostic_snapshot(status)
        except Exception as exc:  # diagnostics never skip the abort
            snapshot = {"hang": status.to_dict(), "error": repr(exc)}
        snapshot_path = self._persist(snapshot, "watchdog_snapshot")

        self.state = "recovering"
        recovered, attempts = self._try_recover(status)
        self.report = {
            "verdict": "recovered" if recovered else "aborted",
            # time.monotonic() at confirmation: what a campaign's
            # hang_within is judged by.
            "confirmed_at": detected_wall,
            "sim_time": status.sim_time,
            "stalled_wall_seconds": status.stalled_wall_seconds,
            "stuck_buffers": [b.to_dict() for b in status.stuck_buffers],
            "suspects": self._suspects(status),
            "recovery_attempts": attempts,
            "recovery_wall_seconds": round(
                time.monotonic() - detected_wall, 3),
            "snapshot_path": snapshot_path,
            "trace_window": self._trace_tail(),
        }
        if recovered:
            self.state = "recovered"
            self.report["postmortem_path"] = self._persist(
                self.report, "watchdog_recovery")
            return
        # Escalation between recovery and abort: if a checkpointer is
        # attached, persist one final snapshot of the hung state.  A
        # hung engine is quiescent, so the snapshot is consistent, and
        # restoring it revives the comatose components (the loader's
        # dry-queue kick) — the retry that follows this abort resumes
        # from here instead of repaying the whole run.
        self.report["resume_checkpoint"] = self._final_checkpoint()
        self.report["postmortem_path"] = self._persist(
            self.report, "watchdog_postmortem")
        self.state = "aborted"
        simulation = getattr(self.monitor, "_simulation", None)
        if simulation is not None:
            simulation.abort()

    # -- recovery -------------------------------------------------------
    def _try_recover(self, status) -> tuple:
        """Automated *Tick* + *Kick Start* with bounded retries.

        Returns ``(recovered, attempts_used)``.
        """
        suspects = self._suspects(status)
        attempts = 0
        for attempt in range(self.config.max_tick_retries):
            attempts = attempt + 1
            for name in suspects:
                self.monitor.tick_component(name)
            self.monitor.kick_start()
            if self.loop.wait(self.config.retry_wait):
                break
            status = self.monitor.hang_status()
            if not status.hung:
                return True, attempts
        return False, attempts

    def _suspects(self, status) -> List[str]:
        """Components owning the stuck buffers, most loaded first.

        A buffer ``GPU[0].L2[1].TopPort.Buf`` belongs to the registered
        component whose name is its longest prefix (``GPU[0].L2[1]``).
        """
        names = self.monitor.component_names()
        ranked: List[str] = []
        for row in status.stuck_buffers:
            owner = ""
            for name in names:
                if row.name.startswith(name + ".") and \
                        len(name) > len(owner):
                    owner = name
            if owner and owner not in ranked:
                ranked.append(owner)
            if len(ranked) >= MAX_SUSPECTS:
                break
        return ranked

    def _final_checkpoint(self) -> Optional[str]:
        """One last restorable snapshot of the hung simulation; path on
        success, ``None`` when no checkpointer is attached or the save
        was skipped (unpicklable transients — counted by the
        checkpointer, never fatal here)."""
        checkpointer = getattr(self.monitor, "checkpointer", None)
        if checkpointer is None:
            return None
        try:
            if checkpointer.save_paused():
                return checkpointer.path
        except Exception:
            pass  # diagnostics must never take the run down
        return None

    # -- diagnostics ----------------------------------------------------
    def _diagnostic_snapshot(self, status) -> Dict[str, Any]:
        """Everything a human would have read off the dashboard."""
        monitor = self.monitor
        snapshot: Dict[str, Any] = {
            "hang": status.to_dict(),
            "overview": monitor.overview(),
            "progress": [bar.to_dict() for bar in monitor.progress_bars()],
        }
        profiler = getattr(monitor, "profiler", None)
        profile = profiler.report(10) if profiler is not None else {}
        if profile.get("samples"):
            snapshot["profiler_top"] = profile["functions"]
        injector = getattr(monitor, "injector", None)
        if injector is not None:
            snapshot["faults"] = injector.to_dict()
        trace_tail = self._trace_tail()
        if trace_tail:
            snapshot["trace_window"] = trace_tail
        return snapshot

    def _trace_tail(self) -> List[Dict[str, Any]]:
        """The last ``trace_window`` events before the hang — what was
        moving (and what stopped moving) right at the end."""
        tracer = getattr(self.monitor, "tracer", None)
        if tracer is None or self.config.trace_window <= 0:
            return []
        try:
            events = tracer.store.tail(self.config.trace_window)
        except Exception:
            return []  # diagnostics must never take the run down
        return [ev.to_dict() for ev in events]

    def _persist(self, payload: Dict[str, Any],
                 stem: str) -> Optional[str]:
        if self.config.snapshot_dir is None:
            return None
        directory = os.fspath(self.config.snapshot_dir)
        try:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory,
                                f"{stem}_{self.hang_count}.json")
            # Atomic: a crash (or a kill -9 racing the watchdog) must
            # never leave a torn post-mortem — it is the one file an
            # operator reads after the crash.
            atomic_write_json(path, payload)
            return path
        except OSError:
            return None  # diagnostics must never take the run down


# -- the watchdog plane ------------------------------------------------
def _status(server, params):
    watchdog = server.monitor.watchdog
    return {"enabled": watchdog is not None,
            **(watchdog.to_dict() if watchdog else {})}


def _control(server, params):
    """A request names no file: post-mortems are written only where the
    process says (``enable_watchdog(snapshot_dir=)``)."""
    monitor = server.monitor
    if "snapshot_dir" in params:
        raise BadRequest("snapshot_dir is set from Python, not by a "
                         "request")
    if action_param(params, "start", "stop") == "stop":
        if monitor.watchdog is None:
            raise NotFound("no watchdog attached")
        monitor.watchdog.stop()
        return monitor.watchdog.to_dict()
    config: Dict[str, Any] = {}
    for key in ("check_interval", "retry_wait"):
        if key in params:
            config[key] = float_param(params, key)
    for key in ("max_tick_retries", "trace_window"):
        if key in params:
            config[key] = int_param(params, key, 0)
    try:
        return monitor.enable_watchdog(**config).to_dict()
    except ValueError as exc:
        raise BadRequest(str(exc)) from None


ROUTES = (
    ("GET", "/api/watchdog", _status, "supervision state + post-mortem"),
    ("POST", "/api/watchdog?action=start|stop&...", _control,
     "control the watchdog"),
)
