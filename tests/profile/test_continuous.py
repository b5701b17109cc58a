"""The always-on rolling profiler: windows, back-off, registry."""

import json
import threading
import time

import pytest

from repro.metrics import MetricRegistry, expose
from repro.akita import threads
from repro.akita.threads import register_current_thread
from repro.profile import ContinuousProfiler
from repro.profile import continuous


def _busy_simulation(stop):
    # Classified "other" (test file), but registered as the simulation
    # role — exactly how a real run is labeled.
    register_current_thread("simulation")
    x = 0
    while not stop.is_set():
        x = (x + 1) % 1000003
    threads._roles.pop(threading.get_ident(), None)
    return x


@pytest.fixture
def busy():
    stop = threading.Event()
    worker = threading.Thread(target=_busy_simulation, args=(stop,))
    worker.start()
    yield worker
    stop.set()
    worker.join()


def _profiled(busy, seconds=0.4, **kwargs):
    kwargs.setdefault("interval", 0.005)
    kwargs.setdefault("window_seconds", 0.1)
    profiler = ContinuousProfiler(**kwargs)
    profiler.start()
    time.sleep(seconds)
    profiler.stop()
    return profiler


def test_constructor_validation():
    # NaN passes ``x <= 0`` and would spin the sampler: refused too.
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            ContinuousProfiler(interval=bad)
        with pytest.raises(ValueError):
            ContinuousProfiler(window_seconds=bad)


@pytest.fixture
def fast_backoff(monkeypatch):
    """Back off after 50 ms unread, to at most 80 ms."""
    monkeypatch.setattr(continuous, "BACKOFF_AFTER", 0.05)
    monkeypatch.setattr(continuous, "MAX_INTERVAL", 0.08)


def test_ring_stays_bounded(busy, monkeypatch):
    monkeypatch.setattr(continuous, "RING", 3)
    profiler = _profiled(busy, seconds=0.6)
    status = profiler.status()
    assert status["windows_kept"] <= 3
    assert status["windows_opened"] > 3  # older windows were evicted
    windows = profiler.windows()
    assert len(windows) <= 3
    # Digests carry per-window samples, thread roles and layers.
    assert all(w["samples"] > 0 for w in windows)
    assert any("simulation" in w["threads"] for w in windows)


def test_start_is_idempotent_and_stop_keeps_data(busy):
    profiler = ContinuousProfiler(interval=0.005, window_seconds=0.1)
    profiler.start()
    profiler.start()
    time.sleep(0.710)
    profiler.stop()
    samples = profiler.status()["samples"]
    assert samples > 10
    assert not profiler.running
    # The ring stays readable after stop.
    assert profiler.windows()
    assert profiler.status()["samples"] == samples


def test_role_claimed_mid_window_shows_on_the_next_sample():
    """``Engine.run`` may claim the simulation role long after the
    window opened; the thread must not stay filed under the role its
    name had at the window's first sample."""
    go, stop = threading.Event(), threading.Event()

    def claim_late():
        go.wait()
        _busy_simulation(stop)

    worker = threading.Thread(target=claim_late)
    worker.start()
    profiler = ContinuousProfiler(interval=0.005, window_seconds=60.0)
    profiler.start()
    time.sleep(0.1)  # sampled a few times while still unclaimed
    go.set()
    time.sleep(0.3)
    stop.set()
    worker.join()
    profiler.stop()
    assert profiler.status()["windows_opened"] == 1
    assert profiler.attribution()["threads"].get("simulation")


def test_windows_last_selects_recent(busy):
    profiler = _profiled(busy, seconds=0.5)
    all_windows = profiler.windows()
    last_two = profiler.windows(last=2)
    assert len(last_two) == 2
    assert [w["index"] for w in last_two] \
        == [w["index"] for w in all_windows[-2:]]


def test_attribution_sees_registered_simulation_role(busy):
    profiler = _profiled(busy)
    report = profiler.attribution()
    assert report["samples"] > 10
    assert "simulation" in report["threads"]
    assert report["windows"] >= 1
    summary = profiler.summary()
    assert summary["samples"] == report["samples"]
    assert summary["stacks"]


def test_layer_totals_accumulate_and_registry_publishes(busy):
    registry = MetricRegistry()
    profiler = ContinuousProfiler(interval=0.005, window_seconds=0.1)
    profiler.bind_registry(registry)
    profiler.bind_registry(registry)  # re-bind is a no-op
    profiler.start()
    time.sleep(0.3)
    profiler.stop()
    totals = profiler.layer_totals()
    assert "simulation" in totals
    assert sum(totals["simulation"].values()) > 0
    text = expose(registry)
    assert "rtm_profile_layer_seconds_total" in text
    assert 'thread="simulation"' in text


def test_backoff_doubles_until_touched(busy, fast_backoff):
    profiler = ContinuousProfiler(interval=0.01, window_seconds=0.1)
    profiler.start()
    try:
        time.sleep(0.3)  # several unread back-off periods
        assert profiler.effective_interval > profiler.interval
        assert profiler.status()["backed_off"]
        profiler.touch()
        assert profiler.effective_interval == profiler.interval
        assert not profiler.status()["backed_off"]
    finally:
        profiler.stop()


def test_backoff_is_capped(busy):
    profiler = ContinuousProfiler(interval=0.01)
    profiler._last_touch -= 3600.0  # pretend nobody read for an hour
    assert profiler.effective_interval == continuous.MAX_INTERVAL
    slow = ContinuousProfiler(interval=1.0)  # the base rate wins
    slow._last_touch -= 3600.0
    assert slow.effective_interval == 1.0


def test_reading_resets_backoff(busy, fast_backoff):
    profiler = ContinuousProfiler(interval=0.01, window_seconds=0.1)
    profiler.start()
    try:
        time.sleep(0.2)
        assert profiler.effective_interval > profiler.interval
        profiler.windows(last=1)  # any read API touches
        assert profiler.effective_interval == profiler.interval
    finally:
        profiler.stop()


def test_exports_from_live_ring(busy):
    profiler = _profiled(busy)
    collapsed = profiler.collapsed()
    assert collapsed
    assert all(line.rsplit(" ", 1)[1].isdigit()
               for line in collapsed.strip().splitlines())
    doc = json.loads(json.dumps(profiler.speedscope(name="ring")))
    assert doc["name"] == "ring"
    assert any(p["name"] == "simulation" for p in doc["profiles"])
