"""Tests for CU, dispatcher, command processor, driver, and the
fully assembled platform."""

import pytest

from repro.gpu import (
    GPUPlatform,
    GPUPlatformConfig,
    KernelDescriptor,
    KernelState,
)


def _compute_kernel(num_wgs=4, wfs=2, cycles=8):
    def program(wg, wf):
        yield ("compute", cycles)

    return KernelDescriptor("compute", num_wgs, wfs, program)


def _mem_kernel(num_wgs=4, wfs=2, n_loads=4, footprint=1 << 20):
    def program(wg, wf):
        base = (wg * 7919 + wf * 104729) % footprint
        for i in range(n_loads):
            yield ("load", (base + i * 64) % footprint, 4)
        yield ("store", base % footprint, 4)

    return KernelDescriptor("mem", num_wgs, wfs, program)


@pytest.fixture
def small_platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))


def test_compute_only_kernel_completes(small_platform):
    p = small_platform
    state = p.driver.launch_kernel(_compute_kernel())
    assert p.run()
    assert state.done
    assert state.completed == 4
    assert state.ongoing == 0
    assert state.not_started == 0


def test_memory_kernel_completes(small_platform):
    p = small_platform
    state = p.driver.launch_kernel(_mem_kernel(num_wgs=8))
    assert p.run()
    assert state.completed == 8


def test_memcopy_progress_tracked(small_platform):
    p = small_platform
    copy = p.driver.memcopy_h2d(10_000)
    assert p.run()
    assert copy.done
    assert copy.copied_bytes == 10_000
    assert copy.direction == "h2d"


def test_commands_execute_in_order(small_platform):
    p = small_platform
    c1 = p.driver.memcopy_h2d(4096)
    k = p.driver.launch_kernel(_compute_kernel())
    c2 = p.driver.memcopy_d2h(4096)
    assert p.run()
    assert c1.done and k.done and c2.done
    assert p.driver.commands_completed == 3


def test_kernel_splits_across_chiplets():
    p = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    state = p.driver.launch_kernel(_compute_kernel(num_wgs=10))
    assert p.run()
    assert state.completed == 10
    d0 = p.chiplets[0].dispatcher
    d1 = p.chiplets[1].dispatcher
    assert d0.num_dispatched == 5
    assert d1.num_dispatched == 5


def test_progress_counts_are_consistent_mid_run(small_platform):
    p = small_platform
    state = p.driver.launch_kernel(_mem_kernel(num_wgs=16))
    p.start()
    engine = p.engine
    target = 100e-9
    while not p.simulation.done and engine.now < 1e-3:
        engine.run_until(target)
        target += 100e-9
        assert 0 <= state.completed <= state.total
        assert 0 <= state.ongoing <= state.total
        assert state.completed + state.ongoing + state.not_started \
            == state.total
        if p.simulation.done:
            break
    assert state.done


def test_multiple_kernels_sequential(small_platform):
    p = small_platform
    k1 = p.driver.launch_kernel(_compute_kernel(num_wgs=2))
    k2 = p.driver.launch_kernel(_mem_kernel(num_wgs=2))
    assert p.run()
    assert k1.done and k2.done


def test_platform_component_naming_matches_paper():
    p = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    names = set(p.simulation.component_names)
    assert "Driver" in names
    assert "InterChipletSwitch" in names
    assert "GPU[0].SA[0].CU[0]" in names
    assert "GPU[0].SA[0].L1VROB[0]" in names
    assert "GPU[0].SA[0].L1VAddrTrans[0]" in names
    assert "GPU[0].SA[0].L1VCache[0]" in names
    assert "GPU[1].L2[0]" in names
    assert "GPU[1].WriteBuffer[0]" in names
    assert "GPU[1].DRAM[0]" in names
    assert "GPU[1].RDMA" in names
    assert "GPU[1].Dispatcher" in names
    assert "GPU[1].CommandProcessor" in names


def test_buffer_names_match_paper_figure3():
    p = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    rob = p.chiplets[0].robs[0]
    assert rob.top_port.buf.name == "GPU[0].SA[0].L1VROB[0].TopPort.Buf"


def test_r9_nano_mcm_defaults():
    cfg = GPUPlatformConfig.r9_nano_mcm()
    assert cfg.num_chiplets == 4
    assert cfg.cus_per_gpu == 64
    assert cfg.l1_size_bytes == 16 * 1024
    chiplet = GPUPlatform(GPUPlatformConfig.r9_nano_mcm(
        num_chiplets=1)).chiplets[0]
    assert len(chiplet.cus) == 64
    assert chiplet.l1s[0].mshr.capacity == 16
    assert chiplet.robs[0].top_port.buf.capacity == 8


def test_r9_nano_mcm_builds_full_hierarchy():
    p = GPUPlatform(GPUPlatformConfig.r9_nano_mcm(num_chiplets=4))
    # 4 chiplets x (16 SAs x 4 CUs x 4 chain components) + per-chiplet
    # and global components.
    assert len(p.chiplets) == 4
    assert len(p.chiplets[0].cus) == 64
    assert len(p.simulation.components) > 1000


def test_config_validation():
    from repro.akita import ConfigurationError
    with pytest.raises(ConfigurationError):
        GPUPlatformConfig(num_chiplets=0)
    with pytest.raises(ConfigurationError):
        GPUPlatformConfig(sas_per_gpu=0)
    with pytest.raises(ConfigurationError):
        GPUPlatformConfig(l2_banks=0)


def test_kernel_descriptor_validation():
    with pytest.raises(ValueError):
        KernelDescriptor("bad", 0, 1, lambda wg, wf: iter(()))
    with pytest.raises(ValueError):
        KernelDescriptor("bad", 1, 0, lambda wg, wf: iter(()))


def test_kernel_state_counters():
    k = KernelDescriptor("k", 4, 1, lambda wg, wf: iter(()))
    state = KernelState(k)
    assert state.total == 4
    state.start_wg()
    assert state.ongoing == 1
    assert state.not_started == 3
    state.finish_wg()
    assert state.completed == 1
    assert not state.done


def test_remote_traffic_flows_in_multichiplet_run():
    p = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    # Addresses spanning both chiplets' pages.
    state = p.driver.launch_kernel(_mem_kernel(num_wgs=8, n_loads=8,
                                               footprint=1 << 20))
    assert p.run()
    assert state.done
    total_rdma = sum(c.rdma.num_forwarded for c in p.chiplets)
    assert total_rdma > 0
    assert p.switch.num_forwarded > 0
