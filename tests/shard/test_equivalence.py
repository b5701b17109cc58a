"""A sharded run is the *same simulation* as the monolithic one.

The conservative window protocol may reorder wall-clock work between
processes, but committed architectural work must not change: the
instruction/workgroup/memory-request totals match the single-process
run exactly, and the per-family metric totals agree.  The workload
deliberately keeps ``page_locality`` at its default so roughly half of
all stores cross the shard boundary — this exercises the codec, the
window barrier, and the injection path as hard as the small scale
allows.  A second, four-chiplet platform split 2 and 4 ways checks the
same instruction total when a shard holds more than one chiplet, and
that every port a boundary message can land on is adopted by its
shard's :class:`ShardConnection` (the injector delivers through it).
"""

from urllib.request import urlopen

import pytest

from repro.gpu.cu import ComputeUnit
from repro.gpu.platform import GPUPlatform, GPUPlatformConfig
from repro.metrics import SimMetrics, expose, family_total, parse_exposition
from repro.shard import ShardConnection, ShardCoordinator, ShardRuntime
from repro.shard.partition import chiplet_owners, owner_of_name
from repro.workloads import StoreStorm

_CONFIG = GPUPlatformConfig.small(num_chiplets=2)
_WORKLOAD = StoreStorm(num_workgroups=8, wavefronts_per_wg=2,
                       stores_per_wavefront=16)

# Four chiplets, each workgroup's stores on its own chiplet: a 2-way
# split puts two chiplets in each shard, a 4-way split one.
_WIDE_CONFIG = GPUPlatformConfig.small(num_chiplets=4)
_WIDE_WORKLOAD = StoreStorm(num_workgroups=16, wavefronts_per_wg=2,
                            stores_per_wavefront=8, page_locality=4)

# Families whose totals must survive sharding exactly: committed work.
_EXACT_FAMILIES = [
    "rtm_cu_instructions_total",
    "rtm_cu_wgs_completed_total",
    "rtm_cu_mem_reqs_total",
]
# Families allowed a small drift: boundary ferrying replaces in-process
# hops (switch traffic becomes codec traffic), and the windowed engine
# runs a handful of extra barrier events.
_NEAR_FAMILIES = [
    "rtm_cache_writes_total",
    "rtm_cache_reads_total",
]


def _monolithic():
    platform = GPUPlatform(_CONFIG)
    _WORKLOAD.enqueue(platform.driver)
    metrics = SimMetrics(platform.simulation)
    metrics.start()
    completed = platform.run()
    counters = {"instructions": 0, "wgs": 0, "mem_reqs": 0}
    for comp in platform.simulation.components:
        if isinstance(comp, ComputeUnit):
            counters["instructions"] += comp.num_instructions
            counters["wgs"] += comp.num_wgs_completed
            counters["mem_reqs"] += comp.num_mem_reqs
    return completed, counters, expose(metrics.registry)


@pytest.fixture(scope="module")
def runs():
    mono = _monolithic()
    coordinator = ShardCoordinator(_CONFIG, _WORKLOAD, 2,
                                   monitor=True, metrics=True)
    try:
        result = coordinator.run()
        federated = coordinator.federated_metrics()
        dashboard = None
        if result.dashboard_url:
            with urlopen(result.dashboard_url + "/metrics",
                         timeout=10) as rsp:
                dashboard = rsp.read().decode()
    finally:
        coordinator.close()
    return mono, result, federated, dashboard


def test_both_runs_complete(runs):
    (mono_ok, _, _), result, _, _ = runs
    assert mono_ok
    assert result.completed
    assert result.num_shards == 2


def test_committed_work_matches_exactly(runs):
    (_, counters, _), result, _, _ = runs
    assert result.instructions == counters["instructions"]
    assert result.wgs == counters["wgs"]
    assert result.mem_reqs == counters["mem_reqs"]
    # And the workload actually did something.
    assert result.instructions > 0
    assert result.boundary_messages > 0  # the boundary was exercised


def test_metric_family_totals_match(runs):
    (_, _, mono_text), _, federated, _ = runs
    mono = parse_exposition(mono_text)
    shard = parse_exposition(federated)
    for name in _EXACT_FAMILIES:
        mono_total, mono_n = family_total(mono, name)
        shard_total, shard_n = family_total(shard, name)
        assert mono_n and shard_n, name
        assert shard_total == mono_total, name
    for name in _NEAR_FAMILIES:
        mono_total, mono_n = family_total(mono, name)
        shard_total, shard_n = family_total(shard, name)
        assert mono_n and shard_n, name
        assert shard_total == pytest.approx(mono_total, rel=0.05), name


def test_coordinator_serves_one_federated_exposition(runs):
    _, _, federated, dashboard = runs
    # The HTTP gateway serves the same federation the API builds.
    assert dashboard is not None
    for text in (federated, dashboard):
        assert 'shard="0"' in text
        assert 'shard="1"' in text
        assert "rtm_shard_window_seconds" in text
        assert "rtm_shard_boundary_messages_total" in text
        assert "rtm_shard_barrier_wait_seconds_total" in text
        # Shard-side families arrive labelled, once per shard.
        assert text.count("rtm_cu_instructions_total{") >= 2


@pytest.fixture(scope="module")
def wide_monolithic():
    platform = GPUPlatform(_WIDE_CONFIG)
    _WIDE_WORKLOAD.enqueue(platform.driver)
    assert platform.run()
    return sum(comp.num_instructions
               for comp in platform.simulation.components
               if isinstance(comp, ComputeUnit))


@pytest.mark.parametrize("num_shards", [2, 4])
def test_four_chiplets_commit_the_monolithic_instructions(wide_monolithic,
                                                          num_shards):
    coordinator = ShardCoordinator(_WIDE_CONFIG, _WIDE_WORKLOAD, num_shards)
    try:
        result = coordinator.run()
    finally:
        coordinator.close()
    assert result.completed
    assert result.num_shards == num_shards
    assert result.instructions == wide_monolithic > 0


@pytest.mark.parametrize("num_shards", [2, 4])
def test_every_boundary_destination_is_adopted(num_shards):
    # A boundary port is an endpoint of a monolithic link whose ends
    # belong to different shards: the driver's and command processors'
    # ports, the switch ports and the RDMA net ports of chiplets off
    # the hub.  On its owning shard it must be plugged into a
    # ShardConnection, which the injector delivers through.
    owners = chiplet_owners(_WIDE_CONFIG.partition_chiplets(num_shards))
    boundary = set()
    for conn in GPUPlatform(_WIDE_CONFIG).simulation.connections:
        names = [port.name for port in conn.ports]
        if len({owner_of_name(name, owners) for name in names}) > 1:
            boundary.update(names)
    assert any(name.startswith("Driver") for name in boundary)
    assert any(".RDMA." in name for name in boundary)
    for shard in range(num_shards):
        runtime = ShardRuntime(_WIDE_CONFIG, _WIDE_WORKLOAD, shard,
                               num_shards)
        owned = [name for name in boundary
                 if owner_of_name(name, owners) == shard]
        assert owned
        for name in owned:
            assert isinstance(runtime.registry[name].connection,
                              ShardConnection), (shard, name)
