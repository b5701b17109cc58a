"""Edge cases of the driver's command queue."""

import pytest

from repro.gpu import GPUPlatform, GPUPlatformConfig, KernelDescriptor


def _tiny_kernel(num_wgs=1):
    return KernelDescriptor("tiny", num_wgs, 1,
                            lambda wg, wf: iter([("compute", 1)]))


def test_empty_command_queue_completes_immediately():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    assert platform.run()
    assert platform.driver.all_done
    assert platform.simulation.now == pytest.approx(1e-9, abs=1e-9)


def test_zero_byte_memcopy():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    copy = platform.driver.memcopy_h2d(0)
    assert platform.run()
    assert copy.done


def test_single_workgroup_kernel():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    state = platform.driver.launch_kernel(_tiny_kernel(1))
    assert platform.run()
    assert state.completed == 1
    # Only one chiplet received work.
    dispatched = [c.dispatcher.num_dispatched for c in platform.chiplets]
    assert sorted(dispatched) == [0, 1]


def test_more_workgroups_than_slots_queue_up():
    cfg = GPUPlatformConfig.small(num_chiplets=1, sas_per_gpu=1,
                                  cus_per_sa=1)
    platform = GPUPlatform(cfg)
    # 1 CU x 10 wf slots; 40 single-wavefront WGs must round-trip.
    state = platform.driver.launch_kernel(_tiny_kernel(40))
    assert platform.run()
    assert state.completed == 40


def test_driver_command_order_is_strict():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    order = []

    def make(tag, n):
        def program(wg, wf):
            order.append(tag)
            yield ("compute", n)

        return KernelDescriptor(tag, 1, 1, program)

    platform.driver.launch_kernel(make("first", 5))
    platform.driver.launch_kernel(make("second", 5))
    assert platform.run()
    assert order == ["first", "second"]


def test_queue_length_counts_pending_commands():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
    driver = platform.driver
    assert driver.queue_length == 0
    driver.memcopy_h2d(64)
    driver.launch_kernel(_tiny_kernel())
    assert driver.queue_length == 2
    assert platform.run()
    assert driver.queue_length == 0
    assert driver.commands_completed == 2


def test_dma_rate_scales_memcopy_time():
    def copy_time(rate):
        platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))
        platform.driver.dma_bytes_per_cycle = rate
        platform.driver.memcopy_h2d(1 << 20)
        assert platform.run()
        return platform.simulation.now

    assert copy_time(64) > copy_time(1024) * 8
