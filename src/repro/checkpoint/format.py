"""Checkpoint file format and the save/load fix-up pipeline.

Layout::

    <header JSON>\\n
    <pickled payload bytes>

The header is one line of JSON carrying a magic string, a format
version, the payload length, its SHA-256, and a ``meta`` dict (sim
time, event count, plus whatever the caller adds — job id, attempt,
cadence sequence).  Loading verifies magic, version, length and digest
before unpickling, so a truncated or bit-flipped file fails loudly
instead of resuming a corrupt simulation.  Files are written via
temp-file + fsync + atomic rename (:mod:`repro.core.atomicio`), so the
last good checkpoint at a path survives a crash mid-save.

Message ids need no fix-up: the engine numbers them
(``Engine.next_msg_id``) and pickles the number with the rest of the
simulation, so a restored run goes on numbering exactly where the saved
one was.  (Events carry no id either: the event queue pickles its own
tie-break sequence.)

Restore fix-ups (what pickling alone cannot carry):

* **Workload programs.**  Wavefront op streams are generators of
  (deterministic) workload programs — unpicklable.  Kernel descriptors
  drop them on save; the loader reinstalls them by kernel name from
  the workload the caller provides, and live wavefronts replay their
  consumed-op count to their exact position.
* **Tick revival.**  The snapshot may have been taken from a *damaged*
  run (a stall fault puts components into a wakeable coma).  If the
  snapshot's queue is dry — the hung-run signature — the loader
  schedules a wake-up tick for every ticking component.  Snapshots
  with pending events are self-driving: pickling kept every schedule
  flag exactly as the live run had it, so they resume untouched.
"""

from __future__ import annotations

import hashlib
import io
import json
import pickle
from typing import Any, Callable, Dict, Optional, Tuple

from ..akita.component import TickingComponent
from ..core.atomicio import atomic_write_bytes

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
]

CHECKPOINT_MAGIC = "rtm-ckpt"
#: Goes up whenever a pickled class changes shape, so that a file
#: from another build is refused at the header and not by a failing
#: (or worse, succeeding) unpickle.  2: events carry no ``id``.
#: 3: every port has ``incoming``, every component the wake-up pair.
#: 4: a hookable's fields in name order; an MSHR has ``full``/``unsent``.
#: 5: a port counts its deliveries by fill (``fills``).
#: 6: a buffer counts its reserved slots; a connection keeps no table.
#: 7: the engine carries ``next_msg_id``; the header no watermark.
CHECKPOINT_VERSION = 7

#: Refuse to parse absurd header lines (a corrupt file could otherwise
#: make the reader scan for a newline through gigabytes of pickle).
_MAX_HEADER_BYTES = 1 << 20


class CheckpointError(Exception):
    """A checkpoint could not be written, read, or verified."""


def save_checkpoint(platform: Any, path: str,
                    meta: Optional[Dict[str, Any]] = None
                    ) -> Dict[str, Any]:
    """Snapshot *platform* to *path* atomically; returns the header.

    The caller must ensure the simulation is quiescent — the engine
    paused, dry, or the call made from the simulation thread between
    events (the :class:`~repro.checkpoint.checkpointer.Checkpointer`
    guarantees this).  Unpicklable transients in the object graph (e.g.
    a fault injector's pending pin-window callbacks) raise
    :class:`CheckpointError`; the cadence driver treats that as a
    skipped snapshot, never a dead run.
    """
    engine = getattr(platform, "engine", None)
    header_meta: Dict[str, Any] = dict(meta or {})
    if engine is not None:
        header_meta.setdefault("sim_time", engine.now)
        header_meta.setdefault("event_count", engine.event_count)
        header_meta.setdefault("pending_events",
                               engine.pending_event_count)
    try:
        payload = pickle.dumps(platform,
                               protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"simulation state is not picklable right now: "
            f"{type(exc).__name__}: {exc}") from exc
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "payload_bytes": len(payload),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "meta": header_meta,
    }
    buf = io.BytesIO()
    buf.write(json.dumps(header).encode())
    buf.write(b"\n")
    buf.write(payload)
    try:
        atomic_write_bytes(path, buf.getvalue())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: "
                              f"{exc}") from exc
    return header


def load_checkpoint(path: str,
                    workload: Any = None) -> Tuple[Any, Dict[str, Any]]:
    """Load, verify and fix up a checkpoint; returns ``(platform,
    header)``.

    *workload* (a :class:`repro.workloads.base.Workload`) supplies the
    generator program to reinstall; omit it only for platforms that
    never launched a kernel.  Wake-up ticks are scheduled so a snapshot
    of a stalled run resumes making progress.
    """
    header, payload = _read_checkpoint(path)
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} is corrupt: payload SHA-256 mismatch")
    try:
        platform = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path} failed to unpickle: "
            f"{type(exc).__name__}: {exc}") from exc
    _reinstall_programs(platform, workload)
    _revive_ticking(platform)
    return platform, header


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _read_checkpoint(path: str) -> Tuple[Dict[str, Any], bytes]:
    try:
        with open(path, "rb") as fh:
            line = fh.readline(_MAX_HEADER_BYTES)
            if not line.endswith(b"\n"):
                raise CheckpointError(
                    f"checkpoint {path} has no complete header line")
            try:
                header = json.loads(line)
            except ValueError as exc:
                raise CheckpointError(
                    f"checkpoint {path} header is not JSON: "
                    f"{exc}") from exc
            if not isinstance(header, dict) \
                    or header.get("magic") != CHECKPOINT_MAGIC:
                raise CheckpointError(
                    f"{path} is not an rtm checkpoint")
            if header.get("version") != CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"checkpoint {path} has unsupported version "
                    f"{header.get('version')!r} (this build reads "
                    f"{CHECKPOINT_VERSION})")
            expected = int(header.get("payload_bytes", -1))
            if expected < 0:
                raise CheckpointError(
                    f"checkpoint {path} header lacks payload_bytes")
            payload = fh.read(expected + 1)
            if len(payload) != expected:
                raise CheckpointError(
                    f"checkpoint {path} is truncated or padded: "
                    f"expected {expected} payload bytes, found "
                    f"{len(payload)}")
            return header, payload
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc}") from exc


def _reinstall_programs(platform: Any, workload: Any) -> None:
    driver = getattr(platform, "driver", None)
    kernels = getattr(driver, "kernels", None)
    if not kernels:
        return
    table: Dict[str, Callable] = {}
    if workload is not None:
        descriptor = workload.kernel()
        table[descriptor.name] = descriptor.program
    missing = []
    for state in kernels:
        descriptor = state.descriptor
        if descriptor.program is not None:
            continue
        program = table.get(descriptor.name)
        if program is None:
            missing.append(descriptor.name)
            continue
        # Pickle preserves object identity, so one reinstall fixes the
        # descriptor every command, message and wavefront points at.
        descriptor.install_program(program)
    if missing:
        raise CheckpointError(
            "no program available for kernel(s) "
            f"{sorted(set(missing))}; pass the checkpoint's workload "
            "to load_checkpoint")


def _revive_ticking(platform: Any) -> None:
    simulation = getattr(platform, "simulation", platform)
    engine = getattr(simulation, "engine", None)
    components = getattr(simulation, "components", None)
    # A non-empty queue is a self-driving simulation, and its pickled
    # schedule flags are the live run's own: a component may rightly
    # disagree with the queue (a stale later tick left by ``tick_at``,
    # a ``_near_tick`` shortcut), so any rewrite perturbs the exact
    # schedule.  A dry queue means every component is asleep — either
    # the workload finished (kicks are a few no-progress ticks) or a
    # fault put the system into a wakeable coma, and the kick is the
    # difference between resuming and staying hung.  A run that goes
    # back to sleep *after* restore is the watchdog's job, same as any
    # hang.
    if engine is None or components is None or engine.pending_event_count:
        return
    for component in components:
        if isinstance(component, TickingComponent):
            component._next_scheduled = None
            component.tick_later()
