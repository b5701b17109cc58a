"""Tests for value watches (300-point history) and resource sampling."""

import time

import pytest
from hypothesis import given, strategies as st

from repro.akita import Buffer, Engine
from repro.core import (
    HISTORY,
    MAX_WATCHES,
    ResourceMonitor,
    ValueMonitor,
    ValueWatch,
)


class _Thing:
    name = "Thing"

    def __init__(self):
        self.level = 0
        self.queue = []
        self.buf = Buffer("Thing.B", 8)
        self.text = "nope"


# ------------------------------------------------------------- watches
def test_watch_samples_numbers():
    t = _Thing()
    w = ValueWatch(t, "level")
    t.level = 5
    assert w.sample(1.0) == 5.0
    t.level = 7
    assert w.sample(2.0) == 7.0
    assert list(w.points) == [(1.0, 5.0), (2.0, 7.0)]


def test_watch_samples_container_sizes():
    t = _Thing()
    w = ValueWatch(t, "queue")
    t.queue.extend([1, 2, 3])
    assert w.sample(0.0) == 3.0


def test_watch_samples_buffer_size():
    t = _Thing()
    w = ValueWatch(t, "buf")
    t.buf._items.append("x")
    assert w.sample(0.0) == 1.0


def test_watch_bad_path_returns_none():
    w = ValueWatch(_Thing(), "missing.path")
    assert w.sample(0.0) is None
    assert len(w.points) == 0


def test_watch_non_numeric_returns_none():
    w = ValueWatch(_Thing(), "text")
    assert w.sample(0.0) is None


def test_history_bounded_at_300():
    """Paper §IV-C: 'keep only the most recent 300 data points'."""
    t = _Thing()
    w = ValueWatch(t, "level")
    for i in range(1000):
        t.level = i
        w.sample(float(i))
    assert len(w.points) == HISTORY == 300
    assert w.points[0] == (700.0, 700.0)   # oldest kept
    assert w.points[-1] == (999.0, 999.0)


def test_watch_label_defaults_to_component_and_path():
    w = ValueWatch(_Thing(), "level")
    assert w.label == "Thing.level"


def test_watch_to_dict():
    t = _Thing()
    w = ValueWatch(t, "level")
    w.sample(1.5)
    d = w.to_dict()
    assert d["path"] == "level"
    assert d["points"] == [[1.5, 0.0]]


def test_monitor_limits_watches_to_five():
    """Paper §IV-C: 'plots up to five individual values over time'."""
    vm = ValueMonitor()
    things = [_Thing() for _ in range(7)]
    watches = [vm.watch(t, "level") for t in things]
    assert len(vm.watches) == MAX_WATCHES == 5
    # Oldest watches were dropped.
    remaining = {w.id for w in vm.watches}
    assert watches[0].id not in remaining
    assert watches[-1].id in remaining


def test_monitor_unwatch():
    vm = ValueMonitor()
    w = vm.watch(_Thing(), "level")
    assert vm.unwatch(w.id)
    assert not vm.unwatch(w.id)
    assert vm.watches == []


def test_monitor_sample_all():
    vm = ValueMonitor()
    a, b = _Thing(), _Thing()
    a.level, b.level = 1, 2
    vm.watch(a, "level")
    vm.watch(b, "level")
    vm.sample_all(5.0)
    assert all(len(w.points) == 1 for w in vm.watches)


@given(st.integers(min_value=1, max_value=500))
def test_history_never_exceeds_bound(n):
    t = _Thing()
    w = ValueWatch(t, "level")
    for i in range(n):
        w.sample(float(i))
    assert len(w.points) == min(n, HISTORY)


# ------------------------------------------------------------- resources
def test_resource_sample_fields():
    engine = Engine()
    monitor = ResourceMonitor(engine)
    time.sleep(0.02)
    sample = monitor.sample()
    assert sample.rss_bytes > 1024 * 1024   # we certainly use >1MB
    assert sample.cpu_percent >= 0.0
    assert sample.events_per_second == 0.0  # engine idle


def test_resource_sample_to_dict():
    monitor = ResourceMonitor(Engine())
    time.sleep(0.02)
    d = monitor.sample().to_dict()
    assert set(d) == {"cpu_percent", "rss_bytes", "rss_mb",
                      "events_per_second"}


def test_events_per_second_tracks_engine():
    from repro.akita import CallbackEvent
    engine = Engine()
    monitor = ResourceMonitor(engine)
    time.sleep(0.02)
    monitor.sample()
    for i in range(1000):
        engine.schedule(CallbackEvent(float(i + 1), lambda e: None))
    engine.run()
    time.sleep(0.02)
    sample = monitor.sample()
    assert sample.events_per_second > 0


def test_rapid_resample_returns_cached():
    monitor = ResourceMonitor(Engine())
    time.sleep(0.02)
    first = monitor.sample()
    second = monitor.sample()  # immediate: cached
    assert first is second


def test_busy_loop_shows_high_cpu():
    monitor = ResourceMonitor(Engine())
    monitor.sample()
    deadline = time.monotonic() + 0.2
    x = 0
    while time.monotonic() < deadline:
        x += 1
    sample = monitor.sample()
    assert sample.cpu_percent > 50.0
