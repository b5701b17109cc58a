"""Continuous-profiling overhead: monitored vs monitored+profiled.

The profiling plane's tentpole claim: the always-on rolling profiler at
its default rate (50 Hz) is cheap enough to leave enabled for a whole
campaign.  Two cells, same workload and platform as a Figure 7 column:

1. ``monitored`` — Monitor attached, SimMetrics hooks live; no
   profiler.  This is the baseline Figure 7 already pays for.
2. ``profiled``  — the same stack plus ``start_continuous_profiling()``
   at defaults: 50 Hz sampling, 2 s windows, adaptive back-off armed.

Because the gate is tight (1.05x) and shared CI hosts drift, the two
cells are *interleaved*: each round runs a monitored/profiled pair
back-to-back and contributes one pairwise ratio, so slow-moving host
noise hits both sides of every ratio equally.  The gate asserts the
median pairwise ratio; the table lands in
``profile_overhead_summary.txt`` for CI to commit as an artifact.
"""

import time
from pathlib import Path

import pytest

from repro.core import Monitor
from repro.workloads import FIR

from .conftest import bench_platform

#: Same single-benchmark choice as the metrics/tracing cells: FIR
#: showed the paper's worst overhead.
_WORKLOAD = lambda: FIR(num_samples=16384)  # noqa: E731

#: The gate: continuous profiling may cost at most 5% on top of an
#: already-monitored run (median of pairwise ratios).
_GATE = 1.05

_PAIRS = 5


def _run_once(profiled):
    """One monitored run; returns (wall_seconds, profiler_evidence)."""
    platform = bench_platform()
    _WORKLOAD().enqueue(platform.driver)
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.ensure_sim_metrics().start()
    if profiled:
        monitor.start_continuous_profiling()  # paper-default rate
    start = time.perf_counter()
    completed = platform.run()
    wall = time.perf_counter() - start
    assert completed
    evidence = None
    if profiled:
        profiler = monitor.profiler
        evidence = {"status": profiler.status(),
                    "threads": set(profiler.attribution()["threads"])}
    monitor.stop_server()
    return wall, evidence


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@pytest.fixture(scope="module")
def overhead_pairs():
    # One throwaway warm-up pair: first-run effects (allocator growth,
    # bytecode cache) would otherwise land on whichever cell goes
    # first.
    _run_once(False)
    _run_once(True)
    pairs = []
    for _ in range(_PAIRS):
        monitored, _ = _run_once(False)
        profiled, evidence = _run_once(True)
        pairs.append((monitored, profiled, evidence))
    return pairs


def test_profiler_really_ran(overhead_pairs):
    """The profiled cells must actually have profiled: samples taken,
    windows kept, the simulation thread attributed."""
    for _, __, evidence in overhead_pairs:
        assert evidence["status"]["samples"] > 0
        assert evidence["status"]["windows_kept"] > 0
        assert "simulation" in evidence["threads"]


def test_profiled_run_within_gate(overhead_pairs):
    """Acceptance bound: continuous profiling at the default rate costs
    <= 1.05x of the unprofiled monitored run."""
    ratios = [profiled / monitored
              for monitored, profiled, _ in overhead_pairs]
    med_monitored = _median([m for m, _, __ in overhead_pairs])
    med_profiled = _median([p for _, p, __ in overhead_pairs])
    med_ratio = _median(ratios)

    lines = ["=== Continuous-profiling overhead "
             f"(FIR, {_PAIRS} interleaved pairs) ===",
             f"monitored median  {med_monitored:8.3f} s",
             f"profiled  median  {med_profiled:8.3f} s",
             "pairwise ratios   "
             + "  ".join(f"{r:.3f}" for r in ratios),
             f"median ratio      {med_ratio:8.3f}x",
             f"gate: median ratio <= {_GATE:.2f}x monitored"]
    table = "\n".join(lines)
    print("\n\n" + table)
    Path("profile_overhead_summary.txt").write_text(table + "\n")

    assert med_ratio <= _GATE, \
        f"median pairwise ratio {med_ratio:.3f}x exceeds {_GATE}x gate"
