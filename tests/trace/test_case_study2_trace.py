"""End-to-end acceptance: trace the case-study-2 hang across chiplets.

A two-chiplet variant of the write-buffer-bug platform deadlocks under
StoreStorm just like the paper's single-chiplet case, but its stores
also cross the RDMA fabric — so the recorded trace must show the full
ROB → L1 → RDMA message chain, the Perfetto export must carry those
hops, and a supervising watchdog's post-mortem must end with the
trailing trace window.
"""

import json

import pytest

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.trace import RingStore, TraceKind, Tracer, write_perfetto
from repro.workloads import StoreStorm


def _two_chiplet_trigger_config():
    """StoreStorm.trigger_config, widened to two chiplets so stores
    cross the RDMA fabric before wedging in the L2 write buffer."""
    return GPUPlatformConfig.small(
        num_chiplets=2, l2_write_buffer_bug=True,
        l2_size_bytes=1024, l2_ways=2, wb_queue_capacity=2,
        wb_in_buf=1, wb_width=1, l2_storage_buf=1,
        dram_latency_cycles=20, max_outstanding_per_wf=16)


@pytest.fixture(scope="module")
def hung_trace(tmp_path_factory):
    """Run the bug-enabled platform to its deadlock, traced and
    supervised; shared by the assertions below."""
    platform = GPUPlatform(_two_chiplet_trigger_config())
    StoreStorm().enqueue(platform.driver)

    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    tracer = monitor.ensure_tracer(capacity=500_000)
    tracer.start()

    ok = platform.run(hang_wait=0.0)
    tracer.stop()
    assert not ok and platform.simulation.run_state == "hung"

    out_dir = tmp_path_factory.mktemp("cs2_trace")
    perfetto_path = out_dir / "cs2_hang.json"
    write_perfetto(tracer.query(limit=0), perfetto_path)
    return platform, monitor, tracer, perfetto_path


def test_hang_run_recorded_events(hung_trace):
    _, __, tracer, ___ = hung_trace
    stats = tracer.store.stats()
    assert stats["recorded"] > 1000
    assert stats["events"] > 0


def test_trace_covers_rob_l1_rdma_chain(hung_trace):
    _, __, tracer, ___ = hung_trace
    hops = tracer.query(limit=0)
    components = {ev.component for ev in hops
                  if ev.kind in TraceKind.MESSAGE}
    assert any("ROB" in name for name in components)
    assert any("L1" in name for name in components)
    assert any("RDMA" in name for name in components)


def test_perfetto_export_contains_cross_chiplet_hops(hung_trace):
    _, __, ___, perfetto_path = hung_trace
    doc = json.loads(perfetto_path.read_text())
    threads = {e["args"]["name"] for e in doc["traceEvents"]
               if e.get("ph") == "M" and e["name"] == "thread_name"}
    assert any("ROB" in name for name in threads)
    assert any("L1" in name for name in threads)
    assert any("RDMA" in name for name in threads)
    slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert slices
    # Flow arrows pair sends with delivers across the hierarchy.
    assert any(e.get("ph") == "s" for e in doc["traceEvents"])
    assert any(e.get("ph") == "f" for e in doc["traceEvents"])


def test_write_buffer_tasks_left_open_at_hang(hung_trace):
    """The deadlock's signature in the task stream: cache misses that
    began but never ended."""
    _, __, tracer, ___ = hung_trace
    begins = {(ev.component, ev.extra)
              for ev in tracer.query(kind=TraceKind.TASK_BEGIN, limit=0)
              if ev.msg_type == "cache_miss"}
    ends = {(ev.component, ev.extra)
            for ev in tracer.query(kind=TraceKind.TASK_END, limit=0)
            if ev.msg_type == "cache_miss"}
    assert begins - ends, "a deadlocked run must strand cache misses"


def test_watchdog_postmortem_carries_trace_window(hung_trace):
    platform, monitor, tracer, _ = hung_trace
    # Drive the hang handler directly (the run has already wedged): the
    # polling thread is stopped a minute before its first check.
    watchdog = monitor.enable_watchdog(
        check_interval=60.0, retry_wait=0.02, max_tick_retries=0,
        trace_window=32)
    watchdog.stop()
    assert monitor.watchdog is watchdog
    status = monitor.hang_status()
    assert status.hung  # run_state == "hung" is definitive
    watchdog._handle_hang(status)
    window = watchdog.report["trace_window"]
    assert len(window) == 32
    seqs = [ev["seq"] for ev in window]
    assert seqs == sorted(seqs)
    # The window is the *tail*: its last event is the newest recorded.
    assert seqs[-1] == max(ev.seq for ev in tracer.store.tail(1))
