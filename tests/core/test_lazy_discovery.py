"""Buffers are discovered when the analyzer is first read, not when a
component is registered — and the first read finds what an eager walk
of an idle twin finds, whenever it happens.

``Monitor()`` used to walk every component for a bottleneck table most
runs never open (1.4 ms on the small platform; every fleet job paid
it).  Now the walk runs once, under one lock, at the first
``snapshot()`` / ``non_empty()`` / ``buffer_count`` — possibly on a
server thread beside a running engine, which is what these tests are
about.
"""

import sys
import threading
import time

import pytest

from repro.akita import Buffer, Component, Engine
from repro.core import BufferAnalyzer, Monitor, RTMClient, discover_buffers
from repro.core import bottleneck
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR, Im2Col, StoreStorm

PLATFORMS = {
    "fir": (1, lambda: FIR(num_samples=8192)),
    "im2col": (2, lambda: Im2Col.scaled(batch=2)),
    "storestorm": (2, lambda: StoreStorm(
        num_workgroups=16, wavefronts_per_wg=4, stores_per_wavefront=16)),
}


def _platform(kind):
    chiplets, workload = PLATFORMS[kind]
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=chiplets))
    workload().enqueue(platform.driver)
    return platform


def _eager_names(kind):
    """What registration used to find: every component of an idle
    twin, walked on the spot."""
    twin = _platform(kind)
    return {buf.name for component in twin.simulation.components
            for buf in discover_buffers(component)}


def _names(monitor):
    return {row.name
            for row in monitor.analyzer.snapshot(include_empty=True)}


def _run_in_thread(platform):
    thread = threading.Thread(target=platform.run, daemon=True)
    thread.start()
    return thread


def _wait_for_events(engine, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    while engine.event_count < count:
        assert time.monotonic() < deadline, "simulation never got going"
        time.sleep(0.001)


def test_registering_walks_nothing(monkeypatch):
    walked = []
    real = bottleneck.discover_buffers
    monkeypatch.setattr(bottleneck, "discover_buffers",
                        lambda c: walked.append(c.name) or real(c))
    platform = _platform("fir")
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    assert walked == []
    count = monitor.analyzer.buffer_count
    assert walked == [c.name for c in platform.simulation.components]
    # One walk: later reads, of any kind, find it done.
    monitor.analyzer.snapshot(top=5)
    monitor.analyzer.non_empty()
    assert monitor.overview()["num_buffers"] == count
    assert len(walked) == len(platform.simulation.components)


@pytest.mark.parametrize("kind", sorted(PLATFORMS))
def test_first_read_before_the_run_finds_the_eager_set(kind):
    platform = _platform(kind)
    monitor = Monitor(platform.simulation)
    assert _names(monitor) == _eager_names(kind)


@pytest.mark.parametrize("kind", sorted(PLATFORMS))
def test_first_read_after_the_run_finds_the_eager_set(kind):
    platform = _platform(kind)
    monitor = Monitor(platform.simulation)
    assert platform.run()
    assert _names(monitor) == _eager_names(kind)


@pytest.mark.parametrize("kind", sorted(PLATFORMS))
def test_first_read_mid_run_from_a_server_thread_finds_the_eager_set(kind):
    platform = _platform(kind)
    engine = platform.simulation.engine
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    try:
        run = _run_in_thread(platform)
        _wait_for_events(engine, 500)
        with RTMClient(url) as client:
            client.buffers(top=5)       # the first read: a handler thread
            events_at_read = engine.event_count
        run.join(timeout=60.0)
        assert not run.is_alive()
    finally:
        monitor.stop_server()
    assert events_at_read < engine.event_count, \
        "the run was over before the read: nothing was tested"
    assert _names(monitor) == _eager_names(kind)


def test_four_first_readers_beside_a_running_fir_agree():
    platform = _platform("fir")
    engine = platform.simulation.engine
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    start = threading.Barrier(4)
    answers, errors = [], []

    def read():
        try:
            with RTMClient(url) as client:
                start.wait(timeout=10.0)
                client.buffers(top=5)
                answers.append((client.overview()["num_buffers"],
                                sorted(_names(monitor))))
        except Exception as exc:  # collected, asserted empty below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        run = _run_in_thread(platform)
        _wait_for_events(engine, 500)
        readers = [threading.Thread(target=read) for _ in range(4)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30.0)
            assert not reader.is_alive()
        events_at_read = engine.event_count
        run.join(timeout=60.0)
        assert not run.is_alive()
    finally:
        sys.setswitchinterval(interval)
        monitor.stop_server()
    assert errors == []
    assert events_at_read < engine.event_count
    expected = sorted(_eager_names("fir"))
    assert answers == [(len(expected), expected)] * 4
    assert monitor.analyzer.buffer_count == len(expected)


def test_racing_first_reads_walk_each_component_once():
    """Eight threads (more than cores), 10 us switch interval, all
    released into the first read at once: a walk outside the lock
    would skip or repeat components."""
    platform = _platform("fir")
    analyzer = BufferAnalyzer()
    for component in platform.simulation.components:
        analyzer.register_component(component)
    start = threading.Barrier(8)
    counts = []

    def read():
        start.wait(timeout=10.0)
        counts.append((analyzer.buffer_count,
                       len(analyzer.snapshot(include_empty=True))))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=read) for _ in range(8)]
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=30.0)
            assert not reader.is_alive()
    finally:
        sys.setswitchinterval(interval)
    expected = len(_eager_names("fir"))
    assert counts == [(expected, expected)] * 8
    assert analyzer._walked == len(platform.simulation.components)


def test_a_component_registered_after_the_first_read_is_found_next():
    class Box(Component):
        def __init__(self, name, engine):
            super().__init__(name, engine)
            self.buf = Buffer(f"{name}.Buf", 4)

        def handle(self, event):
            pass

    engine = Engine()
    analyzer = BufferAnalyzer()
    analyzer.register_component(Box("A", engine))
    assert analyzer.buffer_count == 1
    late = Box("B", engine)
    analyzer.register_component(late)
    late.buf._items.append("x")
    assert [row.name for row in analyzer.non_empty()] == ["B.Buf"]
    assert analyzer.buffer_count == 2
