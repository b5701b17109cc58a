"""Shared machinery for the benchmark harness.

The harness regenerates every table and figure of the paper's
evaluation; see DESIGN.md's experiment index.  Figure 7's four
monitoring scenarios are implemented here:

1. ``none``     — monitoring not activated,
2. ``monitor``  — monitor + HTTP server running, no requests,
3. ``passive``  — a browser-like poller refreshing only time and
                  progress indicators,
4. ``active``   — simulated user interaction: component-detail and
                  buffer-analyzer clicks at fixed intervals.

The absolute wall-clock numbers depend on the host; what must hold (and
what the tests assert) is the paper's *shape*: overhead is small in all
monitored scenarios.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import pytest

from repro.core import Monitor, RTMClient
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import AES, BFS, FIR, Im2Col, KMeans, MatMul, Workload

SCENARIOS = ("none", "monitor", "passive", "active")


def bench_suite() -> Dict[str, Callable[[], Workload]]:
    """The six benchmarks at sizes that fully engage the scaled
    platform's CUs while staying tractable in pure Python."""
    return {
        "aes": lambda: AES(num_blocks=4096),
        "bfs": lambda: BFS(num_vertices=2048),
        "fir": lambda: FIR(num_samples=32768),
        "im2col": lambda: Im2Col.scaled(batch=24),
        "kmeans": lambda: KMeans(num_points=4096),
        "matmul": lambda: MatMul(n=96, tile=16),
    }


class _Poller:
    """Background HTTP poller emulating a browser tab."""

    def __init__(self, client: RTMClient, active: bool,
                 passive_interval: float = 0.5,
                 active_interval: float = 1.0):
        self.client = client
        self.active = active
        self.passive_interval = passive_interval
        self.active_interval = active_interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.requests = 0

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        components: List[str] = []
        click = 0
        last_active = 0.0
        while not self._stop.wait(self.passive_interval):
            try:
                # Passive browser: time + progress indicators refresh.
                self.client.overview()
                self.client.progress()
                self.requests += 2
                if not self.active:
                    continue
                now = time.monotonic()
                if now - last_active < self.active_interval:
                    continue
                last_active = now
                # Active user: clicks in the component list + analyzer
                # refreshes (the paper automated clicks at 1 s intervals;
                # ours are proportionally faster because the simulated
                # runs are seconds, not hours).
                if not components:
                    components = self.client.components()
                    self.requests += 1
                if components:
                    name = components[click % len(components)]
                    click += 1
                    self.client.component(name)
                    self.requests += 1
                self.client.buffers(top=20)
                self.requests += 1
            except Exception:
                # Server shutting down at the end of the run.
                return


@dataclass
class ScenarioContext:
    """A prepared (but not yet run) Figure 7 cell.

    The timed region is ``platform.run()`` alone; everything here —
    monitor attachment, server startup, poller startup and the matching
    teardown — stays outside the measurement, as in the paper (which
    times simulation execution, not tool startup).
    """

    platform: GPUPlatform
    monitor: Optional[Monitor] = None
    poller: Optional["_Poller"] = None

    def teardown(self) -> None:
        if self.poller is not None:
            self.poller.stop()
        if self.monitor is not None:
            self.monitor.stop_server()


def prepare_scenario(workload_factory: Callable[[], Workload],
                     scenario: str) -> ScenarioContext:
    """Set up one (workload, scenario) cell of Figure 7."""
    assert scenario in SCENARIOS
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    workload_factory().enqueue(platform.driver)
    ctx = ScenarioContext(platform)
    if scenario != "none":
        ctx.monitor = Monitor(platform.simulation)
        ctx.monitor.attach_driver(platform.driver)
        url = ctx.monitor.start_server()
        if scenario in ("passive", "active"):
            ctx.poller = _Poller(RTMClient(url),
                                 active=(scenario == "active"))
            ctx.poller.start()
    return ctx


@pytest.fixture(scope="session")
def fig7_results():
    """Session-wide accumulator so the Figure 7 table can be printed
    once at the end of the run."""
    results: Dict[str, Dict[str, List[float]]] = {}
    yield results
    if not results:
        return
    lines = ["=== Figure 7: execution time by monitoring scenario "
             "(medians, seconds) ==="]
    header = f"{'benchmark':10s}" + "".join(f"{s:>12s}" for s in SCENARIOS)
    lines.append(header + f"{'overhead%':>12s}")

    def median(v):
        if not v:
            return float("nan")
        s = sorted(v)
        mid = len(s) // 2
        return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2

    for name in sorted(results):
        cells = results[name]
        meds = {s: median(v) for s, v in cells.items()}
        base = meds.get("none")
        worst = max((meds[s] for s in SCENARIOS[1:] if s in meds),
                    default=float("nan"))
        overhead = 100.0 * (worst - base) / base if base else float("nan")
        row = f"{name:10s}" + "".join(
            f"{meds.get(s, float('nan')):12.3f}" for s in SCENARIOS)
        lines.append(row + f"{overhead:12.1f}")
    table = "\n".join(lines)
    print("\n\n" + table)
    # Also persist as an artifact (pytest captures teardown prints).
    from pathlib import Path
    Path("fig7_summary.txt").write_text(table + "\n")
