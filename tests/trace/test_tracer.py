"""Tracer behaviour on a real (small) GPU simulation."""

import pytest

from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.trace import RingStore, TraceKind, Tracer
from repro.workloads import FIR


@pytest.fixture
def platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))


def _traced_run(platform, num_samples=512, **tracer_kw):
    FIR(num_samples=num_samples).enqueue(platform.driver)
    tracer = Tracer(platform.simulation, RingStore(200_000), **tracer_kw)
    tracer.start()
    assert platform.run()
    tracer.stop()
    return tracer


# ----------------------------------------------------------------------
# Zero cost when detached (the fault-injector discipline)
# ----------------------------------------------------------------------
def test_no_hooks_before_start_and_after_stop(platform):
    tracer = Tracer(platform.simulation)
    assert all(not c._hooks for c in platform.simulation.components)
    assert all(not c._hooks for c in platform.simulation.connections)

    tracer.start()
    assert all(c._hooks for c in platform.simulation.components)
    assert all(c._hooks for c in platform.simulation.connections)
    assert tracer.recording

    tracer.stop()
    assert all(not c._hooks for c in platform.simulation.components)
    assert all(not c._hooks for c in platform.simulation.connections)
    assert not tracer.recording


def test_start_stop_idempotent(platform):
    tracer = Tracer(platform.simulation)
    tracer.start()
    # One callable per position the tracer records at.
    once = [c.num_hooks for c in platform.simulation.components]
    assert set(once) == {5}
    tracer.start()
    assert [c.num_hooks for c in platform.simulation.components] == once
    tracer.stop()
    tracer.stop()
    assert all(not c._hooks for c in platform.simulation.components)


def test_untraced_run_records_nothing(platform):
    tracer = Tracer(platform.simulation)
    FIR(num_samples=256).enqueue(platform.driver)
    assert platform.run()
    assert tracer.store.recorded == 0


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def test_records_full_message_lifecycle(platform):
    tracer = _traced_run(platform)
    assert tracer.store.recorded > 0
    kinds = {ev.kind for ev in tracer.query(limit=0)}
    assert TraceKind.SEND in kinds
    assert TraceKind.DELIVER in kinds
    assert TraceKind.RETRIEVE in kinds


def test_records_component_tasks(platform):
    tracer = _traced_run(platform)
    begins = tracer.query(kind=TraceKind.TASK_BEGIN, limit=0)
    ends = tracer.query(kind=TraceKind.TASK_END, limit=0)
    task_kinds = {ev.msg_type for ev in begins}
    assert "workgroup" in task_kinds
    assert "cache_miss" in task_kinds
    assert "rdma_transfer" in task_kinds  # 2 chiplets => remote traffic
    # Every task that began also ended (the run completed).
    assert {(e.component, e.extra) for e in ends} >= \
        {(b.component, b.extra) for b in begins
         if b.msg_type == "workgroup"}


def test_deliver_events_carry_buffer_occupancy(platform):
    tracer = _traced_run(platform)
    deliver = tracer.query(kind=TraceKind.DELIVER, limit=5)
    assert deliver
    for ev in deliver:
        occupancy = ev.extra.split()[0]
        size, capacity = occupancy.split("/")
        assert 0 < int(size) <= int(capacity)


def test_follow_and_path_reconstruct_one_hop(platform):
    tracer = _traced_run(platform)
    sent = tracer.query(kind=TraceKind.SEND, component="RDMA", limit=50)
    assert sent, "two-chiplet FIR must produce RDMA traffic"
    msg_id = sent[0].msg_id
    hops = tracer.follow(msg_id)
    assert [ev.seq for ev in hops] == sorted(ev.seq for ev in hops)
    kinds = [ev.kind for ev in hops if ev.msg_id == msg_id]
    assert kinds[0] == TraceKind.SEND
    lines = tracer.path(msg_id)
    assert any("sent" in line for line in lines)


def test_follow_links_responses_via_extra(platform):
    tracer = _traced_run(platform)
    # Find a request that got a response (a deliver whose extra links
    # back with re:<id>).
    linked = [ev for ev in tracer.query(limit=0)
              if "re:" in ev.extra]
    assert linked
    link = [tok for tok in linked[0].extra.split()
            if tok.startswith("re:")][0]
    original = int(link[3:])
    hops = tracer.follow(original)
    assert any(ev.msg_id == linked[0].msg_id for ev in hops)


def test_include_filter_limits_hooked_components(platform):
    tracer = Tracer(platform.simulation, include=r"RDMA")
    tracer.start()
    hooked = [c.name for c in platform.simulation.components if c._hooks]
    assert hooked and all("RDMA" in name for name in hooked)
    tracer.stop()


def test_include_filter_limits_recorded_components(platform):
    tracer = _traced_run(platform, include=r"RDMA")
    components = {ev.component for ev in tracer.query(limit=0)
                  if ev.kind not in (TraceKind.DROP,)}
    assert components
    assert all("RDMA" in name for name in components)


def test_status_reports_store_and_hooks(platform):
    tracer = Tracer(platform.simulation)
    tracer.start()
    status = tracer.status()
    assert status["recording"] is True
    assert status["hooked_components"] == \
        len(platform.simulation.components)
    assert status["store"]["backend"] == "ring"
    tracer.stop()
