"""Case study 1 (§V-A): the full expert diagnostic walk, end to end.

A scripted expert performs the paper's analysis over the live HTTP API:
initial health check → repeated analyzer refreshes → ROB time charts →
hierarchy walk (translator, L1, RDMA) → root-cause verdict.  The bench
times the complete walk (the "turnaround" AkitaRTM buys compared to a
post-hoc rerun) and asserts every intermediate conclusion.
"""

import threading
import time

import pytest

from repro.core import Monitor, RTMClient
from repro.gpu import GPUPlatform
from repro.studies.participants import PARTICIPANTS, ParticipantAgent
from repro.studies.session import (
    PROBLEM_EVENTS_PER_SECOND,
    problem_platform_config,
    problem_workload,
)


@pytest.fixture(scope="module")
def live_case_study():
    platform = GPUPlatform(problem_platform_config())
    # The study's own slow-down (§V-C): the congestion the walk reads is
    # an opening phase, which a simulator at full speed can leave before
    # the walk reaches the RDMA engine.
    platform.engine.set_throttle(PROBLEM_EVENTS_PER_SECOND)
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    problem_workload().enqueue(platform.driver)
    thread = threading.Thread(target=platform.run, daemon=True)
    thread.start()
    client = RTMClient(monitor.url or monitor.start_server())
    # Warm up to the congested phase.
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        rows = monitor.analyzer.snapshot(top=5)
        kernel_running = any(k.ongoing for k in platform.driver.kernels)
        if kernel_running and any(r.percent >= 1.0 for r in rows):
            break
        time.sleep(0.05)
    yield platform, monitor, client
    platform.simulation.abort()
    thread.join(timeout=30)
    monitor.stop_server()


def test_case_study1_expert_walk(benchmark, live_case_study):
    platform, monitor, client = live_case_study
    benchmark.group = "case-study-1"
    expert = next(p for p in PARTICIPANTS if p.code == "PT3")

    def walk():
        agent = ParticipantAgent(expert, client, think_time=0.01)
        return agent.find_bottlenecks()

    findings = benchmark.pedantic(walk, rounds=1, iterations=1)
    assert "ROB" in findings.bottlenecks
    assert "RDMA" in findings.bottlenecks
    assert findings.success
    observations = " ".join(findings.observations)
    assert "capacity" in observations
    assert "root cause" in observations


def test_case_study1_health_check_first(benchmark, live_case_study):
    """The study's step zero: progress bar + timer confirm liveness."""
    platform, monitor, client = live_case_study
    benchmark.group = "case-study-1"

    def health_check():
        t0 = client.overview()["now"]
        bars = client.progress()
        time.sleep(0.1)
        t1 = client.overview()["now"]
        return t0, t1, bars

    t0, t1, bars = benchmark.pedantic(health_check, rounds=2,
                                      iterations=1)
    assert t1 > t0  # the timer advances
    kernel_bars = [b for b in bars if b["name"].startswith("kernel")]
    assert kernel_bars and kernel_bars[0]["total"] > 0


def test_case_study1_value_monitoring_history(benchmark, live_case_study):
    """The time charts keep at most 300 points (paper §IV-C)."""
    platform, monitor, client = live_case_study
    benchmark.group = "case-study-1"
    name = platform.chiplets[0].robs[0].name
    watch_id = client.watch(name, "size")

    def poll_chart():
        return client.watches()

    for _ in range(5):
        poll_chart()
    watches = benchmark(poll_chart)
    mine = next(w for w in watches if w["id"] == watch_id)
    assert 0 < len(mine["points"]) <= 300
    client.unwatch(watch_id)
