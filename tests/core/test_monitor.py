"""Tests for the Monitor facade (the 12-function plugin API)."""

import threading
import time

import pytest

from repro.akita import CallbackEvent, Simulation, TickingComponent
from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR, StoreStorm


@pytest.fixture
def platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))


@pytest.fixture
def monitor(platform):
    m = Monitor(platform.simulation)
    m.attach_driver(platform.driver)
    return m


def test_register_simulation_registers_everything(platform, monitor):
    assert set(monitor.component_names()) \
        == set(platform.simulation.component_names)
    assert monitor.analyzer.buffer_count > 10


def test_for_platform_is_the_recipe_of_a_monitored_run(platform):
    """One call: simulation registered, driver bars attached, sampler
    running — and no server until one is asked for."""
    FIR(num_samples=256).enqueue(platform.driver)
    m = Monitor.for_platform(platform)
    try:
        assert m.simulation is platform.simulation
        assert m.hang is not None
        assert "kernel:fir" in [b.name for b in m.progress_bars()]
        assert m.sampler.running and m.sampler.name == "rtm-sampler"
        assert m.url is None
    finally:
        m.stop_server()  # no server, but every plane: the sampler too
    assert not m.sampler.running


def test_register_component_requires_name():
    m = Monitor()
    with pytest.raises(ValueError):
        m.register_component(object())


def test_controls_require_engine():
    m = Monitor()
    with pytest.raises(RuntimeError):
        m.pause()
    with pytest.raises(RuntimeError):
        m.now()


def test_now_tracks_engine(platform, monitor):
    assert monitor.now() == 0.0
    platform.engine.schedule(CallbackEvent(1e-9, lambda e: None))
    platform.engine.run()
    assert monitor.now() == 1e-9


def test_pause_and_continue(platform, monitor):
    FIR(num_samples=8192).enqueue(platform.driver)
    t = threading.Thread(target=platform.run)
    monitor.pause()
    assert monitor.paused
    t.start()
    time.sleep(0.05)
    count = platform.engine.event_count
    time.sleep(0.05)
    assert platform.engine.event_count == count
    monitor.continue_()
    assert not monitor.paused
    t.join(timeout=60)
    assert not t.is_alive()


def test_progress_bars_track_driver(platform, monitor):
    wl = FIR(num_samples=4096)
    wl.enqueue(platform.driver)
    bars = monitor.progress_bars()
    names = [b.name for b in bars]
    assert "kernel:fir" in names
    assert "memcopy:h2d" in names
    assert "memcopy:d2h" in names
    platform.run()
    kernel_bar = next(b for b in monitor.progress_bars()
                      if b.name == "kernel:fir")
    assert kernel_bar.completed == kernel_bar.total


def test_manual_progress_bar_lifecycle(monitor):
    bar = monitor.create_progress_bar("iterations", total=10)
    monitor.update_progress_bar(bar, 4, 1)
    assert bar.counts == (4, 1, 10)
    assert bar in monitor.progress_bars()
    monitor.destroy_progress_bar(bar)
    assert bar not in monitor.progress_bars()


def test_component_detail_serializes(platform, monitor):
    name = platform.chiplets[0].robs[0].name
    detail = monitor.component_detail(name)
    assert detail["name"] == name
    assert "capacity" in detail["fields"]
    assert detail["ticking"] is True
    assert "size" in detail["watchable"]


def test_component_tree_hierarchy(platform, monitor):
    tree = monitor.component_tree()
    assert "Driver" in tree
    assert "GPU[0]" in tree
    assert "SA[0]" in tree["GPU[0]"]
    assert "L1VROB[0]" in tree["GPU[0]"]["SA[0]"]


def test_tick_component_wakes_sleeper(platform, monitor):
    rob = platform.chiplets[0].robs[0]
    assert rob.asleep
    assert monitor.tick_component(rob.name)
    assert not rob.asleep
    assert platform.engine.pending_event_count > 0


def test_tick_component_rejects_unknown(monitor):
    assert not monitor.tick_component("NoSuchThing")


def test_tick_component_rejects_non_ticking(platform, monitor):
    # The switch is ticking; find something non-ticking: none in the GPU
    # platform, so register a plain object.
    class Passive:
        name = "Passive"

    monitor.register_component(Passive())
    assert not monitor.tick_component("Passive")


def test_kickstart_resumes_hung_run(monitor):
    """Monitor-level reproduction of the Tick + Kick Start flow."""
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    m = Monitor(platform.simulation)
    StoreStorm().enqueue(platform.driver)
    result = {}
    t = threading.Thread(
        target=lambda: result.setdefault("ok", platform.run(hang_wait=30)))
    t.start()
    deadline = time.monotonic() + 60
    while platform.simulation.run_state != "hung":
        assert time.monotonic() < deadline, "expected a hang"
        time.sleep(0.05)
    # Abort via the monitor path: wake the driver and abort the sim.
    platform.simulation.abort()
    m.kick_start()
    t.join(timeout=30)
    assert not t.is_alive()
    assert result["ok"] is False


def test_overview_fields(platform, monitor):
    o = monitor.overview()
    assert o["run_state"] == "idle"
    assert o["num_components"] == len(platform.simulation.components)
    assert o["num_buffers"] == monitor.analyzer.buffer_count
    assert o["event_count"] == 0


def test_hang_status_requires_simulation():
    m = Monitor()
    with pytest.raises(RuntimeError):
        m.hang_status()


def test_watch_value_by_component_name(platform, monitor):
    rob = platform.chiplets[0].robs[0]
    watch = monitor.watch_value(rob.name, "size")
    assert watch.label == f"{rob.name}.size"
    monitor.values.sample_all(0.0)
    assert len(watch.points) == 1


def test_sampler_thread_feeds_watches(platform, monitor):
    monitor.sample_interval = 0.02
    rob = platform.chiplets[0].robs[0]
    watch = monitor.watch_value(rob.name, "size")
    monitor.start_sampler()
    time.sleep(0.15)
    monitor.stop_sampler()
    assert len(watch.points) >= 2


def test_server_lifecycle(monitor):
    url = monitor.start_server()
    assert url.startswith("http://127.0.0.1:")
    # Starting again returns the same URL.
    assert monitor.start_server() == url
    monitor.stop_server()
    assert monitor.url is None
