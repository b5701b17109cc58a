"""SimMetrics wiring: zero-cost detached, full families attached."""

from bisect import bisect_left

import pytest

from repro.akita.hooks import HookPos
from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.metrics import MetricRegistry, SimMetrics, expose
from repro.metrics.instrument import OCCUPANCY_BUCKETS
from repro.trace import TraceKind
from repro.workloads import FIR, make_workload


@pytest.fixture()
def platform():
    p = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    make_workload("fir").enqueue(p.driver)
    return p


def test_construction_attaches_nothing(platform):
    """Zero-cost discipline: building SimMetrics must not hook the
    engine or any component — only start() does."""
    SimMetrics(platform.simulation)
    assert not platform.simulation.engine._hooks
    assert all(not c._hooks for c in platform.simulation.components)


def test_stop_detaches_everything(platform):
    sm = SimMetrics(platform.simulation)
    sm.start()
    assert platform.simulation.engine._hooks
    sm.stop()
    assert not platform.simulation.engine._hooks
    assert all(not c._hooks for c in platform.simulation.components)


def test_start_stop_idempotent(platform):
    sm = SimMetrics(platform.simulation)
    sm.start()
    sm.start()
    assert len(platform.simulation.engine._hooks) == 1
    sm.stop()
    sm.stop()
    assert not platform.simulation.engine._hooks


def test_run_populates_all_layer_families(platform):
    sm = SimMetrics(platform.simulation)
    sm.start()
    assert platform.run()
    sm.stop()
    reg = sm.registry
    snap = reg.snapshot()

    # Engine layer.
    engine = platform.simulation.engine
    events = snap["rtm_engine_events_total"]["samples"][0]["value"]
    assert events == engine.event_count > 0
    assert snap["rtm_engine_sim_time_seconds"]["samples"][0][
        "value"] == engine.now
    assert snap["rtm_engine_event_wall_seconds_total"]["samples"][0][
        "value"] > 0
    assert snap["rtm_engine_pass_wall_seconds"]["samples"][0][
        "count"] >= 1

    # Port/buffer layer.
    sent = sum(s["value"] for s in
               snap["rtm_port_messages_sent_total"]["samples"])
    delivered = sum(s["value"] for s in
                    snap["rtm_port_messages_delivered_total"]["samples"])
    assert sent > 0 and delivered > 0
    occupancy = snap["rtm_buffer_occupancy_ratio"]["samples"]
    # Exact, not sampled: one observation per delivered message.
    assert sum(s["count"] for s in occupancy) == delivered
    for sample in occupancy:
        # snapshot buckets are per-bin: they sum to the count, and a
        # fullness ratio can never land past the 1.0 bound
        assert sum(sample["buckets"].values()) == sample["count"]
        assert sample["buckets"]["+Inf"] == 0

    # GPU layer: caches, CUs, RDMA (2 chiplets => remote traffic).
    assert sum(s["value"] for s in
               snap["rtm_cache_hits_total"]["samples"]) > 0
    assert sum(s["value"] for s in
               snap["rtm_cu_wgs_completed_total"]["samples"]) > 0
    rdma_components = {s["labels"]["component"] for s in
                       snap["rtm_rdma_forwarded_total"]["samples"]}
    assert any("RDMA" in name for name in rdma_components)

    # Monitor-overhead layer: per-hook-position time and count of the
    # callbacks that actually ran.  Nothing is subscribed per event or
    # per message — everything above was pulled at scrape time.
    by_pos = {s["labels"]["position"]: s["value"] for s in
              snap["rtm_hook_callbacks_total"]["samples"]}
    assert by_pos[HookPos.BEFORE_EVENT.value] == 0
    assert by_pos[HookPos.AFTER_EVENT.value] == 0
    assert by_pos[HookPos.ENGINE_START.value] == 1
    assert by_pos[HookPos.ENGINE_DRY.value] == 1
    assert by_pos[HookPos.PORT_DELIVER.value] == 0
    seconds_by_pos = {s["labels"]["position"]: s["value"] for s in
                      snap["rtm_hook_callback_seconds_total"]["samples"]}
    assert seconds_by_pos[HookPos.BEFORE_EVENT.value] == 0
    assert seconds_by_pos[HookPos.PORT_DELIVER.value] == 0
    assert seconds_by_pos[HookPos.ENGINE_START.value] > 0


def test_no_callback_is_subscribed_per_event(platform):
    """Only the engine's lifecycle is hooked: no component, so no
    callback per event or per message."""
    sm = SimMetrics(platform.simulation)
    sm.start()
    chains = platform.simulation.engine._chains
    assert not chains[HookPos.BEFORE_EVENT.index]
    assert not chains[HookPos.AFTER_EVENT.index]
    for comp in platform.simulation.components:
        assert not comp._hooks
        assert not any(comp._chains)
    sm.stop()


def test_occupancy_equals_the_traced_deliveries_bucket_for_bucket():
    """Two planes, one fact: the histogram pulled from the ports' fill
    counts holds exactly the fills the ring tracer recorded at each
    delivery, bucketed here on its own."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_samples=256).enqueue(platform.driver)
    monitor = Monitor(platform.simulation)
    sm = monitor.ensure_sim_metrics()
    sm.start()
    tracer = monitor.ensure_tracer(backend="ring")
    tracer.start()
    assert platform.run()
    assert tracer.store.dropped == 0
    traced = {}
    for ev in tracer.query(kind=TraceKind.DELIVER, limit=0):
        size, capacity = map(int, ev.extra.split()[0].split("/"))
        bins = traced.setdefault(
            ev.component, [0] * (len(OCCUPANCY_BUCKETS) + 1))
        bins[bisect_left(OCCUPANCY_BUCKETS, size / capacity)] += 1
    family = "rtm_buffer_occupancy_ratio"
    published = {s["labels"]["component"]: list(s["buckets"].values())
                 for s in sm.registry.snapshot(family)[family]["samples"]}
    assert len(published) > 10
    assert published == traced
    sm.stop()


def test_engine_families_are_live_while_a_pass_is_in_flight(platform):
    """Pulled, not pushed: a scrape in the middle of a run reads the
    engine's own counter and the running pass clock."""
    sm = SimMetrics(platform.simulation)
    sm.start()
    engine = platform.simulation.engine
    scrapes = []

    def scrape(ctx):
        if engine.event_count in (100, 200):
            snap = sm.registry.snapshot()
            scrapes.append((
                engine.event_count,
                snap["rtm_engine_events_total"]["samples"][0]["value"],
                snap["rtm_engine_event_wall_seconds_total"]["samples"][0][
                    "value"]))

    engine.accept_hook(scrape, positions=(HookPos.AFTER_EVENT,))
    assert platform.run()
    engine.remove_hook(scrape)
    (n1, events1, wall1), (n2, events2, wall2) = scrapes
    assert (events1, events2) == (n1, n2)
    assert 0 < wall1 < wall2
    final = sm.registry.snapshot()
    wall = final["rtm_engine_event_wall_seconds_total"]["samples"][0][
        "value"]
    assert wall > wall2
    # Finished passes and the histogram of passes tell the same story.
    passes = final["rtm_engine_pass_wall_seconds"]["samples"][0]
    assert passes["count"] == 1 and passes["sum"] == pytest.approx(wall)
    sm.stop()


def test_attach_mid_pass_clocks_from_attach(platform):
    sm = SimMetrics(platform.simulation)
    engine = platform.simulation.engine

    def attach(ctx):
        if engine.event_count == 50:
            sm.start()

    engine.accept_hook(attach, positions=(HookPos.AFTER_EVENT,))
    assert platform.run()
    snap = sm.registry.snapshot()
    assert snap["rtm_engine_event_wall_seconds_total"]["samples"][0][
        "value"] > 0
    assert snap["rtm_engine_events_total"]["samples"][0]["value"] == \
        engine.event_count
    sm.stop()


def test_exposition_during_run_includes_required_families(platform):
    """The acceptance-criteria family list, from the exposition text."""
    sm = SimMetrics(platform.simulation)
    sm.start()
    assert platform.run()
    text = expose(sm.registry)
    for family in ("rtm_engine_events_total",
                   "rtm_buffer_occupancy_ratio",
                   "rtm_cache_hits_total",
                   "rtm_rdma_inflight",
                   "rtm_hook_callback_seconds_total"):
        assert family in text, family
    sm.stop()


def test_shared_registry(platform):
    """SimMetrics can publish into an externally owned registry."""
    reg = MetricRegistry()
    reg.counter("my_own_total").inc()
    sm = SimMetrics(platform.simulation, reg)
    assert sm.registry is reg
    sm.start()
    platform.simulation.engine.run_until(1e-9)
    sm.stop()
    assert "my_own_total" in reg.names
    assert "rtm_engine_events_total" in reg.names


def test_stop_preserves_final_totals(platform):
    sm = SimMetrics(platform.simulation)
    sm.start()
    assert platform.run()
    sm.stop()
    # The collector is gone, but the last collection ran at stop().
    snap = sm.registry.snapshot()
    assert snap["rtm_engine_events_total"]["samples"][0]["value"] == \
        platform.simulation.engine.event_count


def test_a_collect_beside_another_finds_a_components_traffic_whole(
        platform, monkeypatch):
    """A second collect that runs while the first is resolving a
    component's first-delivery children (a ``/metrics`` scrape beside
    the final expose, or two scrapers) finds both or neither, and the
    two leave what one collect would have."""
    assert platform.run()
    sm = SimMetrics(platform.simulation)
    labels = sm._m_occupancy.labels
    beside = []

    def labels_beside_a_second_collect(*values):
        if not beside:
            beside.append(values)
            sm._collect()
        return labels(*values)

    monkeypatch.setattr(sm._m_occupancy, "labels",
                        labels_beside_a_second_collect)
    sm._collect()
    assert beside
    alone = SimMetrics(platform.simulation)
    alone._collect()
    assert sm.registry.snapshot() == alone.registry.snapshot()
