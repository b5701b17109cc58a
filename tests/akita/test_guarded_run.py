"""``run_guarded``: the one way a simulation is run to its end — on the
caller's thread, stopped by a signal or a wall-clock bound, with a
heartbeat that ends with the run — and the nesting of its
``SignalGuard`` inside a caller's own."""

import os
import signal
import threading
import time

from repro.akita.threads import SignalGuard, run_guarded


class _Parked:
    """A platform whose run parks until aborted: a hung simulation kept
    alive for debugging (``hang_wait``)."""

    def __init__(self):
        self.simulation = self
        self.run_state = "hung"
        self.ran_on = None
        self._woken = threading.Event()

    def abort(self):
        self.run_state = "aborted"
        self._woken.set()

    def run(self, hang_wait):
        self.ran_on = threading.current_thread()
        self._woken.wait(hang_wait)
        return False


def _heartbeats():
    return [t for t in threading.enumerate() if t.name == "rtm-progress"]


def _signalled(guard):
    deadline = time.monotonic() + 5.0
    while not guard.requested and time.monotonic() < deadline:
        time.sleep(0.01)
    return guard.requested


def test_an_inner_guards_signal_is_the_outer_guards_too():
    before = signal.getsignal(signal.SIGTERM)
    stopped = []
    with SignalGuard() as outer:
        with SignalGuard(lambda: stopped.append("inner")) as inner:
            os.kill(os.getpid(), signal.SIGTERM)
            assert _signalled(inner)
        assert outer.requested, "the command loop around a job must end"
    assert stopped == ["inner"]
    assert signal.getsignal(signal.SIGTERM) is before


def test_the_wall_bound_aborts_a_parked_run_on_the_callers_thread():
    platform, beats = _Parked(), []
    began = time.monotonic()
    assert run_guarded(platform, 60.0, wall_timeout=0.2,
                       progress=lambda: beats.append(1),
                       interval=0.05) == (False, "aborted")
    assert 0.2 <= time.monotonic() - began < 5.0
    assert platform.ran_on is threading.current_thread()
    assert len(beats) >= 2
    assert not _heartbeats(), "the heartbeat ends with its run"


def test_a_signal_interrupts_the_run_and_reaches_the_callers_guard():
    platform = _Parked()
    with SignalGuard() as outer:
        ok, state = run_guarded(
            platform, 60.0, interval=0.05,
            progress=lambda: os.kill(os.getpid(), signal.SIGTERM))
    assert (ok, state) == (True, "interrupted")
    assert platform.run_state == "aborted" and outer.requested
    assert not _heartbeats()
