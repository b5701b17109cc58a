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
threads follow a strict ``rtm-*`` naming discipline, which
:class:`Periodic` (the one loop that wakes every N seconds) checks.
The main thread's duties of the same kind live here too:
:class:`SignalGuard`, which turns SIGTERM/SIGINT into a clean stop, and
:func:`guarded` (:func:`run_guarded` for a platform), the one way a
simulation is run to its end.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

_lock = threading.Lock()
#: explicit registrations: thread ident -> role
_roles: Dict[int, str] = {}

#: thread-name prefix -> role, for threads nobody registered explicitly.
_NAME_RULES = (
    ("rtm-server", "server"),
    ("rtm-http", "server"),
    ("rtm-fleet-gateway", "server"),
    ("rtm-shard-gateway", "server"),
    ("rtm-sampler", "monitor"),
    ("rtm-watchdog", "monitor"),
    ("rtm-historian", "monitor"),
    ("rtm-recorder", "monitor"),
    ("rtm-cprofiler", "profiler"),
    ("rtm-progress", "fleet"),
    ("rtm-fleet-scheduler", "fleet"),
    ("rtm-channel", "fleet"),
    ("MainThread", "main"),
)
_PREFIXES = tuple(prefix for prefix, _ in _NAME_RULES)


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


#: The one bound on how long :meth:`Periodic.stop` waits for a loop.
JOIN_TIMEOUT = 5.0
#: Held by ``start()`` and by a loop deciding to exit, so a ``start()``
#: racing a ``stop()`` leaves exactly one loop.
_lifecycle = threading.Lock()


class Periodic:
    """Call *body* every *interval* seconds (a number, or a callable
    read before every wait) on a daemon thread named *name* — which
    must map to a role in ``_NAME_RULES`` — until stopped.

    One failure rule: a body that raises is counted (``turns``,
    ``failures``, ``last_error``: plain attributes, served in the
    owner's status document) and the loop goes on.
    """

    def __init__(self, name: str, interval: Union[float, Callable[[], float]],
                 body: Callable[[], Any]):
        if not name.startswith(_PREFIXES):
            raise ValueError(f"no role in _NAME_RULES for {name!r}")
        self.name = name
        self.interval = interval
        self.body = body
        self.turns = 0
        self.failures = 0
        self.last_error: Optional[str] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Idempotent; a loop that outlived :meth:`stop` is told to
        carry on instead of getting a second loop beside it."""
        with _lifecycle:
            if self._stop.is_set():  # a first start has nothing to clear
                self._stop.clear()
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._run, daemon=True, name=self.name)
                self._thread.start()

    def stop(self) -> None:
        """End the loop and wait up to ``JOIN_TIMEOUT`` for it.  A
        thread still in its body by then — or a body calling this to
        end its own loop — is kept (``running`` stays true, in the
        status document too) and ends when the body returns."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(JOIN_TIMEOUT)

    def wait(self, seconds: float) -> bool:
        """An interruptible sleep for bodies; True when asked to end."""
        return self._stop.wait(seconds)

    def status(self) -> Dict[str, Any]:
        return {"name": self.name, "running": self.running,
                "turns": self.turns, "failures": self.failures,
                "last_error": self.last_error}

    def _run(self) -> None:
        while True:
            while not self._stop.wait(
                    self.interval() if callable(self.interval)
                    else self.interval):
                self.turns += 1
                try:
                    self.body()
                except Exception as exc:
                    self.failures += 1
                    self.last_error = f"{type(exc).__name__}: {exc}"
            with _lifecycle:
                if self._stop.is_set():  # not revived by a start()
                    self._thread = None
                    return


class SignalGuard:
    """SIGTERM/SIGINT → remember it was asked, and call *on_signal*.

    A fleet manager terminates its workers with SIGTERM; an operator
    uses Ctrl-C.  Either way the command must wind down cleanly — stop
    what it drives, flush whatever it exports — and report success:
    being told to stop is not a failure.  Handlers are restored on
    ``__exit__`` so library callers (tests invoke ``repro.cli.main``
    in-process) don't leak process-wide state.  Guards nest: an inner
    guard's signal is the outer one's too.
    """

    def __init__(self, on_signal: Callable[[], None] = lambda: None):
        self._on_signal = on_signal
        self._previous = {}
        self.requested = False

    def _handle(self, signum, frame):
        self.requested = True
        self._on_signal()
        outer = self._previous.get(signum)
        if isinstance(getattr(outer, "__self__", None), SignalGuard):
            outer(signum, frame)  # a guard entered inside another

    def __enter__(self) -> "SignalGuard":
        import signal  # here: a process that never guards never loads it
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum,
                                                       self._handle)
            except ValueError:
                pass  # not the main thread: run unguarded
        return self

    def __exit__(self, *exc_info) -> None:
        import signal
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)


def _heartbeat(abort: Callable[[], None],
               progress: Optional[Callable[[], None]],
               interval: float, wall_timeout: Optional[float]) -> Periodic:
    """:func:`guarded`'s ``rtm-progress`` loop."""
    deadline = time.monotonic() + (float("inf") if wall_timeout is None
                                   else wall_timeout)

    def beat() -> None:
        nonlocal deadline
        if time.monotonic() >= deadline:
            deadline = float("inf")  # abort once, then wake by interval
            abort()
        if progress is not None:
            progress()

    return Periodic("rtm-progress",
                    lambda: min(interval, deadline - time.monotonic()), beat)


@contextmanager
def guarded(abort: Callable[[], None], *,
            wall_timeout: Optional[float] = None,
            progress: Optional[Callable[[], None]] = None,
            interval: float = 1.0) -> Iterator[SignalGuard]:
    """Run the body on this thread with SIGTERM/SIGINT calling *abort*;
    a heartbeat calls *progress* every *interval* seconds and *abort*
    *wall_timeout* seconds in, and ends with the body.  Yields the
    :class:`SignalGuard` (``requested``: a signal stopped the body)."""
    heartbeat = _heartbeat(abort, progress, interval, wall_timeout)
    with SignalGuard(abort) as guard:
        if progress is not None or wall_timeout is not None:
            heartbeat.start()
        try:
            yield guard
        finally:
            heartbeat.stop()


def run_guarded(platform: Any, hang_wait: float = 0.0, *,
                wall_timeout: Optional[float] = None,
                progress: Optional[Callable[[], None]] = None,
                interval: float = 1.0) -> Tuple[bool, str]:
    """Run *platform* to its end in :func:`guarded`.  Returns ``(ok,
    state)``: the run state, or ``interrupted`` (ok too) when a signal
    stopped the run."""
    simulation = platform.simulation
    with guarded(simulation.abort, wall_timeout=wall_timeout,
                 progress=progress, interval=interval) as guard:
        platform.run(hang_wait=hang_wait)
    state = "interrupted" if guard.requested else simulation.run_state
    return state in ("completed", "interrupted"), state
