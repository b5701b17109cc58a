"""Tests for the L1 vector cache: hits, misses, MSHR behaviour, routing."""

import pytest

from repro.akita import Engine
from repro.gpu import L1VCache
from repro.gpu.cache.tags import SetAssocTags
from repro.gpu.mem import CACHE_LINE_SIZE

from .harness import MemoryStub, Requester, wire


def _setup(engine, stub_kwargs=None):
    l1 = L1VCache("L1", engine)
    stub = MemoryStub("Mem", engine, **(stub_kwargs or {}))
    req = Requester("Req", engine, l1.top_port)
    wire(engine, req.out, l1.top_port, name="ReqL1")
    wire(engine, l1.bottom_port, stub.top_port, name="L1Mem")
    l1.set_route(lambda addr: stub.top_port)
    return l1, stub, req


def test_cold_miss_fetches_line_then_hits():
    engine = Engine()
    l1, stub, req = _setup(engine)
    req.add_read(0)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert len(stub.seen) == 1
    assert stub.seen[0].access_bytes == CACHE_LINE_SIZE
    assert l1.tags.contains(0)

    # Second access to the same line: no new downstream traffic.
    req.add_read(4)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 2
    assert len(stub.seen) == 1
    assert l1.num_reads == 2


def test_miss_coalescing_single_fetch():
    engine = Engine()
    l1, stub, req = _setup(engine, stub_kwargs={"latency_cycles": 50})
    for _ in range(4):
        req.add_read(128)  # same line, all before fill returns
    req.tick_later()
    engine.run()
    assert len(req.responses) == 4
    assert len(stub.seen) == 1  # coalesced


def test_write_through_no_allocate():
    engine = Engine()
    l1, stub, req = _setup(engine)
    req.add_write(256)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert len(stub.seen) == 1
    assert not l1.tags.contains(256)  # no allocation on write


def test_mshr_full_pins_transactions_at_capacity():
    """The Figure 5(d) L1 signature: pinned at MSHR capacity (16)."""
    engine = Engine()
    l1, stub, req = _setup(engine, stub_kwargs={"frozen": True})
    for i in range(64):
        req.add_read(i * CACHE_LINE_SIZE)
    req.tick_later()
    engine.run()
    assert l1.transactions == 16
    assert l1.top_port.buf.fullness == 1.0  # backpressure above


def test_mshr_drains_when_downstream_resumes():
    engine = Engine()
    l1, stub, req = _setup(engine, stub_kwargs={"frozen": True})
    l1.mshr.capacity = 4
    for i in range(12):
        req.add_read(i * CACHE_LINE_SIZE)
    req.tick_later()
    engine.run()
    assert l1.transactions == 4
    stub.frozen = False
    stub.tick_later()
    engine.run()
    assert l1.transactions == 0
    assert len(req.responses) == 12


def test_route_function_selects_destination():
    engine = Engine()
    l1 = L1VCache("L1", engine)
    local = MemoryStub("Local", engine)
    remote = MemoryStub("Remote", engine)
    req = Requester("Req", engine, l1.top_port)
    wire(engine, req.out, l1.top_port, name="A")
    wire(engine, l1.bottom_port, local.top_port, remote.top_port, name="B")
    l1.set_route(lambda addr: local.top_port if addr < 4096
                 else remote.top_port)
    req.add_read(0)
    req.add_read(8192)
    req.tick_later()
    engine.run()
    assert len(local.seen) == 1
    assert len(remote.seen) == 1
    assert len(req.responses) == 2


def test_fill_evicts_lru_line():
    engine = Engine()
    # 2 sets x 2 ways = 4 lines of 64B -> 256B cache
    l1, stub, req = _setup(engine)
    l1.tags = SetAssocTags(256, 2)
    set_stride = 2 * CACHE_LINE_SIZE
    for i in range(3):  # 3 lines mapping to set 0
        req.add_read(i * set_stride)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 3
    assert not l1.tags.contains(0)  # LRU evicted
    assert l1.tags.contains(2 * set_stride)


def test_hit_latency_observed():
    engine = Engine()
    l1, stub, req = _setup(engine)
    l1.hit_latency = 5
    req.add_read(0)
    req.tick_later()
    engine.run()
    t_miss = engine.now
    req.add_read(0)
    req.tick_later()
    engine.run()
    t_hit = engine.now - t_miss
    assert t_hit < t_miss  # hits are faster than the cold miss
