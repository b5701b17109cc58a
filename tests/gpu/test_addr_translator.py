"""Tests for the address translator and its TLB timing."""

import pytest

from repro.akita import Engine
from repro.gpu import AddressTranslator

from .harness import MemoryStub, Requester, wire


def _setup(engine, at_kwargs=None, stub_kwargs=None):
    at = AddressTranslator("AT", engine, **(at_kwargs or {}))
    stub = MemoryStub("Mem", engine, **(stub_kwargs or {}))
    req = Requester("Req", engine, at.top_port)
    wire(engine, req.out, at.top_port, name="ReqAT")
    wire(engine, at.bottom_port, stub.top_port, name="ATMem")
    at.connect_down(stub.top_port)
    return at, stub, req


def test_requests_pass_through_translated():
    engine = Engine()
    at, stub, req = _setup(engine)
    req.add_read(0x1234)
    req.add_write(0x2000)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 2
    assert [m.address for m in stub.seen] == [0x1234, 0x2000]
    assert at.num_translated == 2
    assert at.transactions == 0


def test_tlb_miss_costs_more_than_hit():
    engine = Engine()
    at, stub, req = _setup(engine)
    at.miss_latency = 50
    req.add_read(0)  # TLB miss: pays the 50-cycle walk
    req.tick_later()
    engine.run()
    t_miss = engine.now
    req.add_read(8)  # same page: TLB hit
    req.tick_later()
    engine.run()
    t_hit = engine.now - t_miss
    assert t_hit < t_miss
    assert t_miss >= 50e-9


def test_tlb_state_updated():
    engine = Engine()
    at, stub, req = _setup(engine)
    req.add_read(0)
    req.add_read(4)
    req.tick_later()
    engine.run()
    assert at.tlb.hits == 1
    assert at.tlb.misses == 1


def test_max_inflight_limits_pipeline_and_backpressures():
    """The translation pipeline is the held resource: with a stuck
    downstream it fills to max_inflight, and further requests back up
    in the top port (requests already forwarded below are bookkeeping,
    not capacity — see Figure 5's translator signature)."""
    engine = Engine()
    at, stub, req = _setup(engine, at_kwargs={"max_inflight": 4},
                           stub_kwargs={"frozen": True, "buf_capacity": 2})
    for i in range(16):
        req.add_read(i * 64)
    req.tick_later()
    engine.run()
    assert at.transactions <= 4               # pipeline bounded
    assert at.inflight_below <= 2             # what the stub absorbed
    assert at.top_port.buf.fullness == 1.0    # backpressure above


def test_transactions_spike_and_drain():
    """Figure 5(d)'s translator signature: bursts that drain when the
    downstream accepts at full rate."""
    engine = Engine()
    at, stub, req = _setup(engine, stub_kwargs={"latency_cycles": 1,
                                                "buf_capacity": 64})
    for i in range(32):
        req.add_read(i * 4096)  # all TLB misses: pipeline fills
    req.tick_later()
    engine.run_until(10e-9)
    peak = at.transactions
    assert peak > 0
    engine.run()
    assert at.transactions == 0
    assert len(req.responses) == 32
