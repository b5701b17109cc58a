"""The cadence driver: periodic snapshots of a live simulation.

Two cadences, composable:

* ``every_events=N`` — deterministic: an ``AFTER_EVENT`` hook fires the
  snapshot on the simulation thread every N processed events, at an
  event boundary by construction.  This is the mode tests and the
  resume benchmark use: the snapshot lands at the same virtual time on
  every run.
* ``interval=T`` — wall-clock: a daemon thread pauses the engine,
  waits for the simulation thread to park at an event boundary, saves,
  and resumes.  This is the mode fleet workers use for crash
  insurance on long jobs.

A failed save (e.g. a fault injector's pin-window callbacks are
momentarily in the queue and unpicklable) is *counted and skipped*,
never allowed to take the run down: durability machinery must not be a
new crash source.

Also the RTM server's checkpoint plane: :data:`ROUTES`.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from ..akita.engine import RunState
from ..akita.hooks import HookCtx, HookPos
from ..akita.threads import Periodic
from ..core.http import BadRequest
from .format import CheckpointError, save_checkpoint

__all__ = ["Checkpointer"]

#: How long the interval thread waits for the engine to park.
_PAUSE_WAIT = 5.0
_PAUSE_POLL = 0.002


class Checkpointer:
    """Writes periodic checkpoints of *platform* to *path*.

    Every save atomically replaces *path*, so the file is always the
    last good snapshot — the single thing a restarting worker needs.

    Parameters
    ----------
    platform:
        The simulation to snapshot (anything with ``engine`` /
        ``simulation`` attributes; in practice a
        :class:`~repro.gpu.platform.GPUPlatform`).
    path:
        Target file, atomically overwritten on each save.
    every_events:
        Snapshot every N processed events (0 disables the hook mode).
    interval:
        Snapshot every T wall seconds (0 disables the thread mode).
    meta:
        Extra header fields stamped into every snapshot (job id,
        attempt...).
    on_save:
        Called with the header dict after each successful save (fleet
        workers announce checkpoints to their manager here).
    registry:
        Optional :class:`~repro.metrics.MetricRegistry`; receives
        ``rtm_checkpoint_writes_total``, ``rtm_checkpoint_errors_total``
        and ``rtm_checkpoint_bytes``/``rtm_checkpoint_sim_time`` gauges.
    """

    def __init__(self, platform: Any, path: str,
                 every_events: int = 0, interval: float = 0.0,
                 meta: Optional[Dict[str, Any]] = None,
                 on_save: Optional[Callable[[Dict[str, Any]], None]]
                 = None,
                 registry: Any = None):
        if every_events <= 0 and interval <= 0:
            raise ValueError(
                "Checkpointer needs every_events > 0 and/or "
                "interval > 0")
        self.platform = platform
        self.engine = platform.engine
        self.path = path
        self.every_events = int(every_events)
        self.interval = float(interval)
        self.meta = dict(meta or {})
        self.on_save = on_save
        self.count = 0
        self.errors = 0
        self.last_error: Optional[str] = None
        self.last_header: Optional[Dict[str, Any]] = None
        self._save_lock = threading.Lock()
        self._next_at = 0
        self._hook_installed = False
        self.loop = Periodic("rtm-checkpointer", self.interval,
                             self.save_paused)
        self._metrics = None
        if registry is not None:
            self._metrics = {
                "writes": registry.counter(
                    "rtm_checkpoint_writes_total",
                    "Checkpoints successfully written."),
                "errors": registry.counter(
                    "rtm_checkpoint_errors_total",
                    "Checkpoint attempts skipped because the state "
                    "was unpicklable or the write failed."),
                "bytes": registry.gauge(
                    "rtm_checkpoint_bytes",
                    "Size of the last written checkpoint."),
                "sim_time": registry.gauge(
                    "rtm_checkpoint_sim_time",
                    "Virtual time of the last written checkpoint."),
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the event hook and/or start the interval thread."""
        if self.every_events > 0 and not self._hook_installed:
            self._next_at = self.engine.event_count + self.every_events
            self.engine.accept_hook(self._on_event,
                                    positions=(HookPos.AFTER_EVENT,))
            self._hook_installed = True
        if self.interval > 0:
            self.loop.start()

    def stop(self) -> None:
        """Detach the hook and stop the interval thread."""
        if self._hook_installed:
            self.engine.remove_hook(self._on_event)
            self._hook_installed = False
        self.loop.stop()

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save_now(self) -> Optional[Dict[str, Any]]:
        """One snapshot, caller-guaranteed quiescent.  Returns the
        header, or ``None`` if the save was skipped (state unpicklable
        or write failure — counted in :attr:`errors`)."""
        with self._save_lock:
            meta = dict(self.meta)
            meta["checkpoint_seq"] = self.count
            try:
                header = save_checkpoint(self.platform, self.path,
                                         meta=meta)
            except CheckpointError as exc:
                self.errors += 1
                self.last_error = str(exc)
                if self._metrics:
                    self._metrics["errors"].inc()
                return None
            self.count += 1
            self.last_header = header
            self.last_error = None
            if self._metrics:
                self._metrics["writes"].inc()
                self._metrics["bytes"].set(
                    float(header["payload_bytes"]))
                self._metrics["sim_time"].set(
                    float(header["meta"].get("sim_time", 0.0)))
            if self.on_save is not None:
                try:
                    self.on_save(header)
                except Exception:
                    pass  # announcement failures must not kill the run
            return header

    def status(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "every_events": self.every_events,
            "interval": self.interval,
            "count": self.count,
            "errors": self.errors,
            "last_error": self.last_error,
            "last": (self.last_header or {}).get("meta"),
            "loop": self.loop.status(),
        }

    # ------------------------------------------------------------------
    # Cadence internals
    # ------------------------------------------------------------------
    def _on_event(self, ctx: HookCtx) -> None:
        if self.engine.event_count >= self._next_at:
            self.save_now()  # on the sim thread => between events
            self._next_at = self.engine.event_count + self.every_events

    def save_paused(self) -> bool:
        """Pause → park → save → continue.  Returns True on a save."""
        engine = self.engine
        if engine.run_state is RunState.RUNNING:
            engine.pause()
            try:
                deadline = _PAUSE_WAIT / _PAUSE_POLL
                while engine.run_state is RunState.RUNNING \
                        and deadline > 0:
                    if self.loop.wait(_PAUSE_POLL):
                        return False
                    deadline -= 1
                if engine.run_state is RunState.RUNNING:
                    return False  # refused to park; try next interval
                return self.save_now() is not None
            finally:
                engine.continue_()
        # Paused, dry, idle or ended: no thread is mutating sim state.
        return self.save_now() is not None


# -- the checkpoint plane ----------------------------------------------
def _status(server, params):
    checkpointer = server.monitor.checkpointer
    return {"enabled": checkpointer is not None,
            **(checkpointer.status() if checkpointer else {})}


def _save(server, params):
    checkpointer = server.monitor.checkpointer
    if checkpointer is None:
        raise BadRequest("no checkpointer attached")
    if params.get("action", "save") != "save":
        raise BadRequest("unknown action (expected save)")
    saved = checkpointer.save_paused()
    return {"saved": saved, **checkpointer.status()}


ROUTES = (
    ("GET", "/api/checkpoint", _status, "checkpointer status"),
    ("POST", "/api/checkpoint?action=save", _save,
     "pause, save a checkpoint, continue"),
)
