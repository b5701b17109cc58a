"""Process-wide registry of *threads of interest*.

A sampling profiler needs to know which thread is which: the paper's
profiler panel (task T4) reports the **simulation thread**, while the
overhead attribution also labels the server, sampler and watchdog
threads so their cost shows up under their own name instead of being
silently folded into the simulation profile.

The simulation thread cannot be known when a monitor is constructed —
it is simply *whichever thread ends up calling* :meth:`Engine.run`.
The engine therefore claims the role here on entry to ``run()``, and
tools attached from above (:mod:`repro.profile`) read the claim on
every sample.  The registry lives in ``akita`` so that the engine
imports nothing above itself.

Everything else is derived from thread names: the repo's own daemon
threads follow a strict ``rtm-*`` naming discipline.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

_lock = threading.Lock()
#: explicit registrations: thread ident -> role
_roles: Dict[int, str] = {}

#: thread-name prefix -> role, for threads nobody registered explicitly.
_NAME_RULES = (
    ("rtm-server", "server"),
    ("rtm-http", "server"),
    ("rtm-gateway", "server"),
    ("rtm-sampler", "monitor"),
    ("rtm-watchdog", "monitor"),
    ("rtm-checkpoint", "monitor"),
    ("rtm-historian", "monitor"),
    ("rtm-cprofiler", "profiler"),
    ("MainThread", "main"),
)


def register_current_thread(role: str) -> int:
    """Claim *role* for the calling thread; returns its ident.

    Re-registering is cheap and expected: ``Engine.run`` calls this on
    every entry, so a kick-started re-run (possibly from a different
    thread) re-pins the simulation role to the thread actually running.
    """
    ident = threading.get_ident()
    with _lock:
        # One role, one thread: drop any stale claim by a previous
        # thread (e.g. the last run's worker thread that has exited).
        for tid in [t for t, r in _roles.items() if r == role]:
            del _roles[tid]
        _roles[ident] = role
    return ident


def unregister_thread(ident: Optional[int] = None) -> None:
    with _lock:
        _roles.pop(ident if ident is not None
                   else threading.get_ident(), None)


def sim_thread_id() -> Optional[int]:
    """Ident of the thread currently holding the ``simulation`` role,
    or None when no engine has run yet."""
    with _lock:
        for tid, role in _roles.items():
            if role == "simulation":
                return tid
    return None


def role_of(ident: int, name: str = "") -> str:
    """Best-effort role label for a thread: explicit registration
    first, then the ``rtm-*`` naming discipline, then ``other``."""
    with _lock:
        role = _roles.get(ident)
    if role is not None:
        return role
    for prefix, mapped in _NAME_RULES:
        if name.startswith(prefix):
            return mapped
    return "other"


def thread_roles() -> Dict[int, str]:
    """ident -> role for every live thread (registered or inferred)."""
    roles: Dict[int, str] = {}
    for thread in threading.enumerate():
        ident = thread.ident
        if ident is None:  # pragma: no cover - not yet started
            continue
        roles[ident] = role_of(ident, thread.name)
    return roles
