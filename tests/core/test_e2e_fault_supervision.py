"""End-to-end: injected stall → detected → attributed → supervised.

Everything but the watchdog's start flows over HTTP, the way a user
(or CI harness) would drive it: arm a stall via ``POST /api/faults``,
then watch ``/api/hang`` flag the hang, ``/api/buffers`` finger the
stalled write buffer, and the watchdog abort the run with a post-mortem
— all inside a bounded wall budget.  The watchdog starts from Python,
because where it writes post-mortems is the process's choice, never a
request's.
"""

import json
import pathlib
import threading
import time

import pytest

from repro.core import Monitor, RTMClient
from repro.faults.injector import FaultKind, FaultSpec
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR

WALL_BUDGET = 30.0


@pytest.fixture
def rig():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    if monitor.hang is not None:
        monitor.hang.stall_threshold = 0.3
    url = monitor.start_server()
    yield platform, monitor, RTMClient(url)
    monitor.stop_server()


def _poll(predicate, deadline):
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(0.05)
    return None


def test_injected_stall_detected_attributed_and_supervised(rig, tmp_path):
    platform, monitor, client = rig
    start = time.monotonic()
    deadline = start + WALL_BUDGET

    spec = client.inject_fault("stall", "*WriteBuffer*", start=5e-7)
    monitor.enable_watchdog(check_interval=0.1, max_tick_retries=1,
                            retry_wait=0.1, snapshot_dir=str(tmp_path))

    FIR(num_samples=2048).enqueue(platform.driver)
    thread = threading.Thread(
        target=lambda: platform.run(hang_wait=WALL_BUDGET), daemon=True)
    thread.start()

    # 1. The hang heuristic flags the stall.
    hang = _poll(lambda: (lambda h: h if h["hung"] else None)(
        client.hang()), deadline)
    assert hang is not None, "hang never flagged within the wall budget"
    assert hang["run_state"] in ("hung", "aborted")

    # 2. The bottleneck table attributes it to the write buffers.
    rows = client.buffers(sort="size", top=50)
    assert any("WriteBuffer" in row["buffer"] for row in rows), rows

    # 3. The watchdog reaches a verdict and aborts within the budget.
    report = _poll(lambda: client.watchdog().get("report"), deadline)
    assert report is not None, "watchdog produced no report in budget"
    assert report["verdict"] == "aborted"
    stuck = [b["buffer"] for b in report["stuck_buffers"]]
    assert any("WriteBuffer" in name for name in stuck)
    assert report["suspects"]  # names the components to look at

    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert client.overview()["run_state"] == "aborted"
    assert time.monotonic() - start < WALL_BUDGET

    # 4. The diagnostic snapshot landed on disk.
    assert list(tmp_path.glob("watchdog_postmortem_*.json"))
    # The armed fault recorded its bites.
    fault = next(f for f in client.faults()["faults"]
                 if f["id"] == spec["id"])
    assert fault["applied_count"] > 0


def test_watchdog_aborts_a_stall_while_the_profiler_runs(tmp_path):
    # The continuous profiler's top-K is one of the snapshot's readers;
    # a hang beside it must still be confirmed, snapshotted and
    # aborted on the first check, not wait out hang_wait.
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.hang.stall_threshold = 0.3
    monitor.ensure_injector().inject(
        FaultSpec(FaultKind.STALL, "*WriteBuffer*", start=1e-6))
    watchdog = monitor.enable_watchdog(
        check_interval=0.05, max_tick_retries=0,
        snapshot_dir=str(tmp_path))
    monitor.start_continuous_profiling(interval=0.005)
    FIR(num_samples=8192).enqueue(platform.driver)
    try:
        start = time.monotonic()
        assert not platform.run(hang_wait=WALL_BUDGET)
        assert time.monotonic() - start < WALL_BUDGET / 3
    finally:
        monitor.stop_planes()

    assert watchdog.state == "aborted"
    assert watchdog.loop.failures == 0
    snapshot = json.loads(
        pathlib.Path(watchdog.report["snapshot_path"]).read_text())
    assert snapshot["profiler_top"]
