"""Injectable-clock regression tests for the hang detector.

The detector must measure stalls on a *monotonic* wall clock — NTP or
DST jumps in ``time.time()`` would fake or mask hangs.  Replacing the
``clock`` attribute makes the stall arithmetic testable without sleeping.
"""

import time

from repro.core.bottleneck import BufferAnalyzer
from repro.core.hangdetect import HangDetector


class FakeEngine:
    def __init__(self):
        self.now = 0.0


class FakeSimulation:
    def __init__(self):
        self.engine = FakeEngine()
        self.run_state = "running"


class FakeClock:
    """A settable monotonic clock."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _detector(clock, threshold=2.0):
    sim = FakeSimulation()
    detector = HangDetector(sim, BufferAnalyzer(), stall_threshold=threshold)
    detector.clock = clock
    return sim, detector


def test_default_clock_is_monotonic():
    detector = HangDetector(FakeSimulation(), BufferAnalyzer())
    assert detector.clock is time.monotonic


def test_stall_measured_on_injected_clock():
    clock = FakeClock()
    sim, detector = _detector(clock)
    sim.engine.now = 1e-6
    detector.record()
    clock.advance(3.0)
    detector.record()
    assert detector.stalled_for() == 3.0
    status = detector.check(cpu_percent=5.0)
    assert status.hung  # frozen sim time + idle CPU past the threshold


def test_progress_resets_the_stall_window():
    clock = FakeClock()
    sim, detector = _detector(clock)
    sim.engine.now = 1e-6
    detector.record()
    clock.advance(5.0)
    sim.engine.now = 2e-6  # simulation advanced: not a stall
    detector.record()
    clock.advance(1.0)
    detector.record()
    assert detector.stalled_for() == 1.0
    assert not detector.check(cpu_percent=5.0).hung


def test_busy_cpu_vetoes_the_stall_verdict():
    clock = FakeClock()
    sim, detector = _detector(clock)
    sim.engine.now = 1e-6
    detector.record()
    clock.advance(10.0)
    status = detector.check(cpu_percent=98.0)
    assert status.stalled_wall_seconds >= 10.0
    assert not status.hung  # slow, not hung


def test_wall_clock_jump_does_not_fake_a_hang():
    """The regression the monotonic requirement protects against: with
    ``time.time()`` an NTP step-back would make the newest snapshot
    *older* than the stall start and corrupt the arithmetic.  A
    monotonic clock can only move forward; simulate the forward re-sync
    and check the verdict stays sane while the sim is advancing."""
    clock = FakeClock()
    sim, detector = _detector(clock)
    for step in range(5):
        sim.engine.now = (step + 1) * 1e-6
        detector.record()
        clock.advance(0.05)
    # A large forward jump between samples, sim still advancing:
    clock.advance(3600.0)
    sim.engine.now += 1e-6
    detector.record()
    assert detector.stalled_for() == 0.0
    assert not detector.check(cpu_percent=90.0).hung
