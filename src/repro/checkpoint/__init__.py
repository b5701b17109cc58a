"""``repro.checkpoint`` — simulation checkpoint/restore.

The durability layer's engine half: a crashed or stall-aborted
simulation attempt restarts from its last good snapshot instead of
t=0.  A checkpoint is taken at an event boundary (the engine paused or
between events), so it captures a consistent view of the entire
simulated system: the engine clock and event queue, every component's
architectural state (caches, ROBs, MSHRs, wavefronts), workload
progress, and the deterministic address-stream position of every live
wavefront.

Two layers:

* :mod:`~repro.checkpoint.format` — the on-disk format and the
  save/load fix-up pipeline (versioned + checksummed + atomically
  renamed; restore reinstalls workload programs and revives the tick
  schedule).
* :mod:`~repro.checkpoint.checkpointer` — the cadence driver: snapshot
  every N events (deterministic, fires on the simulation thread) or
  every T wall seconds (pauses the engine at an event boundary first).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Checkpointer": ".checkpointer",
    "CHECKPOINT_MAGIC": ".format",
    "CHECKPOINT_VERSION": ".format",
    "CheckpointError": ".format",
    "load_checkpoint": ".format",
    "read_checkpoint_meta": ".format",
    "save_checkpoint": ".format",
})
