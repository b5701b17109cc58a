"""Tests for the time-throttle ("slowing down time", §V-C)."""

import threading
import time

import pytest

from repro.akita import CallbackEvent, Engine
from repro.core import Monitor, RTMClient
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


def test_throttle_slows_event_processing():
    engine = Engine()
    for i in range(20):
        engine.schedule(CallbackEvent(float(i + 1), lambda e: None))
    engine.set_throttle(events_per_second=200)  # 5 ms per event
    start = time.monotonic()
    engine.run()
    elapsed = time.monotonic() - start
    assert elapsed >= 20 * 0.005 * 0.8  # ≈100 ms, allow scheduler slop


def test_throttle_zero_restores_full_speed():
    engine = Engine()
    for i in range(1000):
        engine.schedule(CallbackEvent(float(i + 1), lambda e: None))
    engine.set_throttle(1000)
    engine.set_throttle(0)
    start = time.monotonic()
    engine.run()
    assert time.monotonic() - start < 1.0


def test_throttle_adjustable_mid_run_via_http():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    client = RTMClient(url)
    FIR(num_samples=16384).enqueue(platform.driver)
    thread = threading.Thread(target=platform.run, daemon=True)
    thread.start()
    time.sleep(0.1)

    client.throttle(events_per_second=500)
    time.sleep(0.2)
    count_a = client.overview()["event_count"]
    time.sleep(0.4)
    count_b = client.overview()["event_count"]
    throttled_rate = (count_b - count_a) / 0.4
    # 500 events/s target; allow generous slop but it must be far below
    # the unthrottled ~100k events/s.
    assert throttled_rate < 5000

    client.throttle(0)  # full speed: finish quickly
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert platform.simulation.run_state == "completed"
    monitor.stop_server()
