"""Tests for the L2 bank + write buffer + DRAM stack, including the
case-study-2 deadlock in the buggy variant."""

import pytest

from repro.akita import Engine
from repro.gpu import DRAMController, L2Cache, WriteBuffer
from repro.gpu.mem import CACHE_LINE_SIZE

from .harness import Requester, wire


def _setup(engine, buggy=False, l2_kwargs=None, wb_kwargs=None,
           dram_kwargs=None):
    l2 = L2Cache("L2", engine, buggy=buggy, **(l2_kwargs or {}))
    wb = WriteBuffer("WB", engine, buggy=buggy, **(wb_kwargs or {}))
    dram = DRAMController("DRAM", engine, **(dram_kwargs or {}))
    req = Requester("Req", engine, l2.top_port)
    wire(engine, req.out, l2.top_port, name="ReqL2")
    wire(engine, l2.wb_port, l2.storage_port, wb.in_port, name="L2WB")
    wire(engine, wb.dram_port, dram.top_port, name="WBDRAM")
    l2.connect_write_buffer(wb.in_port)
    wb.connect(l2.storage_port, dram.top_port)
    return l2, wb, dram, req


@pytest.mark.parametrize("buggy", [False, True])
def test_read_miss_fetches_through_write_buffer(buggy):
    engine = Engine()
    l2, wb, dram, req = _setup(engine, buggy=buggy)
    req.add_read(0)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert dram.num_reads == 1
    assert wb.num_fills == 1
    assert l2.tags.contains(0)


@pytest.mark.parametrize("buggy", [False, True])
def test_read_hit_skips_dram(buggy):
    engine = Engine()
    l2, wb, dram, req = _setup(engine, buggy=buggy)
    req.add_read(0)
    req.add_read(16)  # same line
    req.tick_later()
    engine.run()
    assert len(req.responses) == 2
    assert dram.num_reads == 1


@pytest.mark.parametrize("buggy", [False, True])
def test_write_allocate_marks_dirty(buggy):
    engine = Engine()
    l2, wb, dram, req = _setup(engine, buggy=buggy)
    req.add_write(0)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert l2.tags.contains(0)
    line_set = l2.tags._set_of(0)
    assert line_set[0] is True  # dirty


def test_dirty_eviction_reaches_dram():
    engine = Engine()
    # 1 set x 2 ways: third distinct line evicts the (dirty) LRU.
    l2, wb, dram, req = _setup(
        engine, l2_kwargs={"size_bytes": 2 * CACHE_LINE_SIZE, "ways": 2})
    set_stride = CACHE_LINE_SIZE  # one set: every line maps to it
    req.add_write(0)
    req.add_write(set_stride)
    req.add_write(2 * set_stride)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 3
    assert wb.num_evictions >= 1
    assert dram.num_writes >= 1


def test_miss_coalescing_at_l2():
    engine = Engine()
    l2, wb, dram, req = _setup(engine,
                               dram_kwargs={"latency_cycles": 100})
    for _ in range(4):
        req.add_read(512)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 4
    assert dram.num_reads == 1


def _storestorm(req, n=96, stride=512):
    for i in range(n):
        req.add_write((i * 3 * stride) % (1 << 22))


def _tight_kwargs():
    return dict(
        l2_kwargs={"size_bytes": 1024, "ways": 2, "storage_buf": 1},
        wb_kwargs={"queue_capacity": 2, "in_buf": 1, "width": 1},
        dram_kwargs={"latency_cycles": 20},
    )


def test_fixed_variant_survives_store_storm():
    engine = Engine()
    l2, wb, dram, req = _setup(engine, buggy=False, **_tight_kwargs())
    _storestorm(req)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 96


@pytest.mark.parametrize("buggy", [False, True])
def test_l2_fill_acceptance_policy(buggy):
    """The L2 half of the deadlock cycle: with its eviction staged and
    the write buffer's InPort full, the buggy (lazy-eviction) L2 refuses
    fetched data, while the fixed (eager-eviction) L2 drains it."""
    from repro.gpu.mem import EvictionReq, FetchedData

    engine = Engine()
    l2, wb, dram, req = _setup(engine, buggy=buggy, **_tight_kwargs())
    # Stage an eviction and make the write buffer's InPort full so the
    # staging cannot drain (the WB is deliberately never woken).
    l2.eviction_staging.append(0xDEAD000)
    while wb.in_port.buf.free_slots > 0:
        wb.in_port.incoming.append(EvictionReq(wb.in_port, 0x3000))
    # A fill is waiting at the L2's storage port; its arrival wakes the L2.
    l2.storage_port.deliver(FetchedData(l2.storage_port, 0x1000, 99))
    engine.run_until(100e-9)
    if buggy:
        assert l2.storage_port.buf.size == 1  # fill refused
        assert l2.blocked_on is not None
        assert "staging" in l2.blocked_on
    else:
        assert l2.storage_port.buf.size == 0  # fill drained anyway


def test_buggy_head_of_line_starves_evictions():
    """The core policy difference: with a blocked fill at the queue
    head, the buggy FIFO write buffer dispatches nothing, while the
    fixed variant still drains evictions/fetches to DRAM."""
    from repro.gpu.mem import EvictionReq

    for buggy, expect_evictions in ((True, 0), (False, 1)):
        engine = Engine()
        l2, wb, dram, req = _setup(engine, buggy=buggy, **_tight_kwargs())
        # Queue: [FILL (blocked: storage full), EVICT].
        fill_req = type("R", (), {})  # placeholder original request
        from repro.gpu.mem import ReadReq
        original = ReadReq(l2.top_port, 0x1000, CACHE_LINE_SIZE)
        wb._queue.append(("fill", original))
        wb._queue.append(("evict", EvictionReq(wb.in_port, 0x2000)))
        # Make the storage port unreachable: fill it via a dirty trick -
        # occupy all slots, waking nobody, so free_slots stays 0.
        while l2.storage_port.buf.free_slots > 0:
            l2.storage_port.incoming.append(object())
        wb.tick_later()
        engine.run_until(100e-9)
        assert wb.num_evictions == expect_evictions, f"buggy={buggy}"


def test_platform_deadlock_and_fix_end_to_end():
    """Case study 2 end to end: the buggy platform hangs with the
    mutual-wait signature and non-empty buffers; the patched platform
    completes the same workload."""
    from repro.gpu import GPUPlatform, GPUPlatformConfig, KernelDescriptor

    def build(buggy):
        cfg = GPUPlatformConfig.small(
            num_chiplets=1, l2_write_buffer_bug=buggy,
            l2_size_bytes=1024, l2_ways=2, wb_queue_capacity=2,
            wb_in_buf=1, wb_width=1, l2_storage_buf=1,
            dram_latency_cycles=20, max_outstanding_per_wf=16)
        platform = GPUPlatform(cfg)

        def program(wg, wf):
            for i in range(96):
                yield ("store",
                       ((wg * 31 + wf * 17 + i * 3) * 512) % (1 << 22), 4)

        kernel = KernelDescriptor("storestorm", num_workgroups=16,
                                  wavefronts_per_wg=4, program=program)
        platform.driver.launch_kernel(kernel)
        return platform

    buggy = build(True)
    assert buggy.run() is False
    assert buggy.simulation.run_state == "hung"
    wb = buggy.chiplets[0].write_buffers[0]
    assert wb.blocked_on is not None and "local storage" in wb.blocked_on
    non_empty = [p.buf.name for c in buggy.simulation.components
                 for p in c.ports if p.buf.size > 0]
    assert any("L2" in n or "WriteBuffer" in n for n in non_empty)
    assert any("L1VCache" in n for n in non_empty)

    fixed = build(False)
    assert fixed.run() is True
    assert fixed.simulation.run_state == "completed"
