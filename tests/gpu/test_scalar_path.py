"""Tests for the per-SA scalar memory path (L1SAddrTrans + L1SCache)."""

import pytest

from repro.gpu import GPUPlatform, GPUPlatformConfig, KernelDescriptor


def _scalar_kernel(num_wgs=4, wfs=2):
    def program(wg, wf):
        yield ("sload", 1 << 16, 64)    # shared table, same for all wfs
        yield ("load", wg * 4096, 4)    # per-wg vector traffic
        yield ("sload", 1 << 16, 4)
        yield ("compute", 2)

    return KernelDescriptor("scalar", num_wgs, wfs, program)


@pytest.fixture
def platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))


def test_scalar_components_exist_per_sa(platform):
    names = set(platform.simulation.component_names)
    cfg = platform.config
    for j in range(cfg.sas_per_gpu):
        assert f"GPU[0].SA[{j}].L1SCache[0]" in names
        assert f"GPU[0].SA[{j}].L1SAddrTrans[0]" in names
    assert len(platform.chiplets[0].scalar_caches) == cfg.sas_per_gpu


def test_sloads_travel_the_scalar_path(platform):
    kernel = platform.driver.launch_kernel(_scalar_kernel())
    assert platform.run()
    assert kernel.done
    scalar_reads = sum(c.num_reads
                       for c in platform.chiplets[0].scalar_caches)
    assert scalar_reads > 0
    # Vector L1s never see the shared-table address.
    for l1 in platform.chiplets[0].l1s:
        assert not l1.tags.contains(1 << 16)


def test_scalar_cache_is_shared_within_the_sa(platform):
    """Two CUs of the same SA fetch the same line once from below."""
    kernel = platform.driver.launch_kernel(_scalar_kernel(num_wgs=2,
                                                          wfs=2))
    assert platform.run()
    chiplet = platform.chiplets[0]
    # The shared line is fetched at most once per SA scalar cache
    # (coalesced/hit afterwards), not once per CU request.
    for cache in chiplet.scalar_caches:
        if cache.num_reads:
            # Downstream fetches (not lookup misses, which count every
            # coalesced request): the shared line goes below only once.
            assert cache.bottom_port.num_sent <= 2


def test_scalar_misses_route_to_memory_like_vector_ones():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    remote_table = 4096  # page 1 -> chiplet 1: scalar path uses RDMA

    def program(wg, wf):
        yield ("sload", remote_table, 64)

    platform.driver.launch_kernel(KernelDescriptor("rs", 1, 1, program))
    assert platform.run()
    assert platform.switch.num_forwarded > 0


def test_sload_falls_back_to_vector_path_without_scalar_wiring():
    from repro.akita import Engine
    from repro.gpu import ComputeUnit
    import tests.gpu.harness as harness

    engine = Engine()
    cu = ComputeUnit("CU", engine)
    stub = harness.MemoryStub("Mem", engine, latency_cycles=2)
    ctrl_sink = harness.MemoryStub("Ctrl", engine)
    harness.wire(engine, cu.mem_port, stub.top_port)
    harness.wire(engine, cu.ctrl_port, ctrl_sink.top_port, name="Ctl")
    cu.connect(stub.top_port, dispatcher_port=ctrl_sink.top_port,
               scalar_top=None)

    from repro.gpu.kernel import KernelDescriptor as KD
    from repro.gpu.kernel import KernelState
    from repro.gpu.protocol import MapWGMsg

    descriptor = KD("k", 1, 1, lambda wg, wf: iter([("sload", 0, 4)]))
    state = KernelState(descriptor)
    # Deliver a workgroup directly (no dispatcher in this harness);
    # the delivery wakes the CU.
    cu.ctrl_port.deliver(MapWGMsg(cu.ctrl_port, state, 0, 0))
    engine.run_until(1e-6)
    assert len(stub.seen) == 1  # went through the vector port


def test_scalar_path_visible_to_monitor(platform):
    from repro.core import Monitor

    monitor = Monitor(platform.simulation)
    detail = monitor.component_detail("GPU[0].SA[0].L1SCache[0]")
    assert "mshr" in detail["fields"]
    tree = monitor.component_tree()
    assert "L1SCache[0]" in tree["GPU[0]"]["SA[0]"]
