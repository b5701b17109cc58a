"""Watchdog unit tests, driven by a scripted fake monitor.

The real-simulation paths are covered by the campaign and e2e tests;
here a deterministic stand-in pins down the state machine: confirm →
snapshot → bounded recovery → abort/post-mortem.
"""

import json
import time

import pytest

from repro.core.bottleneck import BufferRow
from repro.core.hangdetect import HangStatus
from repro.core.watchdog import Watchdog, WatchdogConfig


class FakeSimulation:
    def __init__(self):
        self.aborted = False

    def abort(self):
        self.aborted = True


class FakeMonitor:
    """Scripted hang_status sequence + call recording."""

    def __init__(self, verdicts):
        self._verdicts = list(verdicts)
        self.ticked = []
        self.kicks = 0
        self._simulation = FakeSimulation()

    def hang_status(self):
        hung = self._verdicts.pop(0) if self._verdicts else False
        stuck = [BufferRow("GPU[0].WriteBuffer[1].InPort.Buf", 4, 8),
                 BufferRow("GPU[0].L2[0].TopPort.Buf", 2, 16)] \
            if hung else []
        return HangStatus(hung, 2.5, 1e-6, "hung" if hung else "running",
                          5.0, stuck)

    def component_names(self):
        return ["GPU[0]", "GPU[0].WriteBuffer[1]", "GPU[0].L2[0]"]

    def tick_component(self, name):
        self.ticked.append(name)
        return True

    def kick_start(self):
        self.kicks += 1

    def overview(self):
        return {"run_state": "hung", "now": 1e-6}

    def progress_bars(self):
        return []


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def test_recovery_success_path():
    # Hung once, then healthy after the first automated Tick round.
    monitor = FakeMonitor([True, False])
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.02,
                                          retry_wait=0.02,
                                          max_tick_retries=3))
    wd.start()
    assert _wait(lambda: wd.state == "recovered")
    wd.stop()

    assert wd.report["verdict"] == "recovered"
    assert wd.report["recovery_attempts"] == 1
    assert monitor.kicks == 1
    # Suspects = owners of the stuck buffers, longest-prefix matched.
    assert wd.report["suspects"] == ["GPU[0].WriteBuffer[1]",
                                     "GPU[0].L2[0]"]
    assert monitor.ticked == wd.report["suspects"]
    assert not monitor._simulation.aborted


def test_abort_path_with_postmortem(tmp_path):
    monitor = FakeMonitor([True, True, True, True, True])
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.02,
                                          retry_wait=0.02,
                                          max_tick_retries=2,
                                          snapshot_dir=str(tmp_path)))
    wd.start()
    assert _wait(lambda: wd.state == "aborted")
    wd.stop()

    assert wd.report["verdict"] == "aborted"
    assert wd.report["recovery_attempts"] == 2
    assert monitor._simulation.aborted
    assert wd.hang_count == 1
    # The supervision loop exits after an abort.
    assert not wd.running

    snapshot = json.loads(
        (tmp_path / "watchdog_snapshot_1.json").read_text())
    assert snapshot["hang"]["hung"] is True
    postmortem = json.loads(
        (tmp_path / "watchdog_postmortem_1.json").read_text())
    names = [b["buffer"] for b in postmortem["stuck_buffers"]]
    assert "GPU[0].WriteBuffer[1].InPort.Buf" in names


def test_zero_retries_aborts_without_ticking():
    """``max_tick_retries=0`` is the one door that skips recovery: a
    confirmed hang is aborted at once, nothing ticked."""
    monitor = FakeMonitor([True])
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.02,
                                          max_tick_retries=0))
    wd.start()
    assert _wait(lambda: wd.state == "aborted")
    wd.stop()
    assert wd.report["verdict"] == "aborted"
    assert wd.report["recovery_attempts"] == 0
    assert monitor.ticked == [] and monitor.kicks == 0
    assert monitor._simulation.aborted


def test_a_raising_diagnostic_does_not_skip_the_abort(tmp_path):
    class BrokenOverview(FakeMonitor):
        def overview(self):
            raise RuntimeError("reader broke")

    monitor = BrokenOverview([True])
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.02,
                                          max_tick_retries=0,
                                          snapshot_dir=str(tmp_path)))
    wd.start()
    assert _wait(lambda: wd.state == "aborted")
    wd.stop()
    assert wd.loop.failures == 0
    assert monitor._simulation.aborted
    snapshot = json.loads(
        (tmp_path / "watchdog_snapshot_1.json").read_text())
    assert "reader broke" in snapshot["error"]


def test_healthy_run_never_triggers():
    monitor = FakeMonitor([False] * 5)
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.01))
    wd.start()
    time.sleep(0.15)
    assert wd.state == "watching"
    wd.stop()
    assert wd.state == "stopped"
    assert wd.report is None
    assert wd.hang_count == 0


def test_start_stop_idempotent():
    monitor = FakeMonitor([])
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.01))
    wd.start()
    thread_a = wd.loop._thread
    wd.start()  # no-op while alive
    assert wd.loop._thread is thread_a
    wd.stop()
    wd.stop()  # second stop is harmless
    assert not wd.running


def test_snapshot_dir_failure_is_swallowed(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("file, not dir")
    monitor = FakeMonitor([True])
    wd = Watchdog(monitor, WatchdogConfig(check_interval=0.02,
                                          max_tick_retries=0,
                                          snapshot_dir=str(blocker)))
    wd.start()
    assert _wait(lambda: wd.state == "aborted")
    wd.stop()
    assert wd.report["snapshot_path"] is None  # failed but harmless


def test_to_dict_shape():
    wd = Watchdog(FakeMonitor([]), WatchdogConfig())
    payload = wd.to_dict()
    assert payload["state"] == "idle"
    assert payload["running"] is False
    assert payload["report"] is None
    assert payload["config"] == {"check_interval": 0.25,
                                 "max_tick_retries": 3, "retry_wait": 0.5,
                                 "snapshot_dir": None, "trace_window": 64}


def test_config_refuses_intervals_that_would_spin():
    """A zero or negative interval busy-loops the supervision thread,
    and NaN slips past ``x <= 0``: refused from Python."""
    for key in ("check_interval", "retry_wait"):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=key):
                WatchdogConfig(**{key: bad})
