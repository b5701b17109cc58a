"""Tests for the profiler panel's report (task T4) and the hang
detector."""

import threading
import time

import pytest

from repro.akita import CallbackEvent, Simulation, threads
from repro.core import BufferAnalyzer, HangDetector
from repro.akita.threads import register_current_thread
from repro.profile import ContinuousProfiler


# ------------------------------------------------------------- profiler
def _busy_function_alpha(deadline):
    x = 0
    while time.monotonic() < deadline:
        x = (x + 1) % 1000003
    return x


def _busy_wrapper_beta(deadline):
    return _busy_function_alpha(deadline)


def _simulation_thread(deadline):
    # The panel reports whichever thread holds the simulation role.
    register_current_thread("simulation")
    try:
        _busy_wrapper_beta(deadline)
    finally:
        threads._roles.pop(threading.get_ident(), None)


def _profile_busy_thread(seconds, target=_simulation_thread):
    profiler = ContinuousProfiler(interval=0.002)
    worker = threading.Thread(
        target=target, args=(time.monotonic() + seconds,))
    profiler.start()
    worker.start()
    worker.join()
    profiler.stop()
    return profiler


def test_profiler_identifies_hot_function():
    report = _profile_busy_thread(0.5).report(top=10)
    assert report["samples"] > 10
    names = [f["name"] for f in report["functions"]]
    assert any("_busy_function_alpha" in n for n in names)


def test_profiler_self_vs_total_time():
    functions = _profile_busy_thread(0.5).report(top=200)["functions"]
    alpha = next(f for f in functions
                 if "_busy_function_alpha" in f["name"])
    beta = next(f for f in functions
                if "_busy_wrapper_beta" in f["name"])
    # The leaf does the work; the wrapper only accumulates total time.
    assert alpha["self_time"] > 0
    assert beta["total_time"] >= alpha["self_time"] * 0.5
    assert beta["self_time"] < alpha["self_time"]


def test_profiler_records_call_edges():
    report = _profile_busy_thread(0.4).report(top=200)
    assert any("_busy_wrapper_beta" in edge["caller"]
               and "_busy_function_alpha" in edge["callee"]
               and edge["time"] > 0
               for edge in report["edges"])


def test_report_falls_back_to_every_thread_without_a_simulation_role():
    # An earlier test's engine may hold the simulation role.
    for ident, role in list(threads._roles.items()):
        if role == "simulation":
            del threads._roles[ident]
    report = _profile_busy_thread(
        0.3, target=_busy_wrapper_beta).report(top=200)
    names = [f["name"] for f in report["functions"]]
    assert any("_busy_function_alpha" in n for n in names)


def test_profiler_start_stop_idempotent():
    profiler = ContinuousProfiler(interval=0.01)
    profiler.start()
    profiler.start()
    assert profiler.running
    profiler.stop()
    profiler.stop()
    assert not profiler.running


def test_report_serializes():
    report = ContinuousProfiler(interval=0.005).report()
    assert set(report) == {"duration", "samples", "functions", "edges"}


# ------------------------------------------------------------- hang detector
def _sim_with_state(done=False):
    sim = Simulation()
    sim.set_completion_check(lambda: done)
    return sim


def test_not_hung_while_time_advances():
    sim = Simulation()
    analyzer = BufferAnalyzer()
    detector = HangDetector(sim, analyzer, stall_threshold=0.2)
    for i in range(5):
        sim.engine.schedule(
            CallbackEvent(float(i + 1), lambda e: None))
        sim.engine.run()
        detector.record()
        time.sleep(0.02)
    status = detector.check(cpu_percent=100.0)
    assert not status.hung


def test_hung_when_run_state_says_so():
    sim = _sim_with_state(done=False)
    sim.engine.schedule(CallbackEvent(1.0, lambda e: None))
    sim.run(hang_wait=0.0)  # dries the queue without completing
    assert sim.run_state == "hung"
    detector = HangDetector(sim, BufferAnalyzer())
    status = detector.check(cpu_percent=1.0)
    assert status.hung
    assert status.run_state == "hung"


def test_stall_plus_low_cpu_flags_hang():
    sim = Simulation()
    sim.set_completion_check(lambda: False)
    detector = HangDetector(sim, BufferAnalyzer(), stall_threshold=0.05)
    # Simulate a frozen clock while "running".
    sim.engine._state = type(sim.engine.run_state)("running")
    detector.record()
    time.sleep(0.1)
    status = detector.check(cpu_percent=3.0)
    assert status.hung
    assert status.stalled_wall_seconds >= 0.05


def test_stall_with_high_cpu_is_slow_not_hung():
    sim = Simulation()
    sim.set_completion_check(lambda: False)
    detector = HangDetector(sim, BufferAnalyzer(), stall_threshold=0.05)
    sim.engine._state = type(sim.engine.run_state)("running")
    detector.record()
    time.sleep(0.1)
    status = detector.check(cpu_percent=99.0)
    assert not status.hung


def test_completed_simulation_never_hung():
    sim = Simulation()
    sim.engine.schedule(CallbackEvent(1.0, lambda e: None))
    sim.run()
    detector = HangDetector(sim, BufferAnalyzer(), stall_threshold=0.0)
    time.sleep(0.02)
    status = detector.check(cpu_percent=0.0)
    assert not status.hung
    assert status.run_state == "completed"


def test_hang_status_includes_stuck_buffers():
    from repro.akita import Buffer, Component, Engine

    sim = _sim_with_state(done=False)

    class Box(Component):
        def __init__(self):
            super().__init__("Box", sim.engine)
            self.buf = Buffer("Box.B", 4)

        def handle(self, event):
            pass

    box = Box()
    box.buf._items.append("stuck-msg")
    analyzer = BufferAnalyzer()
    analyzer.register_component(box)
    sim.engine.schedule(CallbackEvent(1.0, lambda e: None))
    sim.run(hang_wait=0.0)
    detector = HangDetector(sim, analyzer)
    status = detector.check(cpu_percent=0.0)
    assert status.hung
    assert [b.name for b in status.stuck_buffers] == ["Box.B"]
    assert status.to_dict()["stuck_buffers"][0]["buffer"] == "Box.B"
