"""Tests for the DRAM controller, RDMA engines, and the chiplet switch."""

import pytest

from repro.akita import Engine
from repro.gpu import (
    AddressMapper,
    ChipletSwitch,
    DRAMController,
    RDMAEngine,
)
from repro.gpu.mem import CACHE_LINE_SIZE

from .harness import MemoryStub, Requester, wire


# ------------------------------------------------------------------ DRAM
def test_dram_answers_after_latency():
    engine = Engine()
    dram = DRAMController("DRAM", engine, latency_cycles=100)
    req = Requester("Req", engine, dram.top_port)
    wire(engine, req.out, dram.top_port)
    req.add_read(0)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert engine.now >= 100e-9


def test_dram_throughput_limit():
    engine = Engine()
    dram = DRAMController("DRAM", engine, latency_cycles=10)
    req = Requester("Req", engine, dram.top_port)
    wire(engine, req.out, dram.top_port)
    n = 20
    for i in range(n):
        req.add_read(i * 64)
    req.tick_later()
    engine.run()
    assert len(req.responses) == n
    # 1 request accepted per cycle -> completion takes at least n cycles.
    assert engine.now >= n * 1e-9


def test_dram_transactions_observable():
    engine = Engine()
    dram = DRAMController("DRAM", engine, latency_cycles=1000)
    req = Requester("Req", engine, dram.top_port)
    wire(engine, req.out, dram.top_port)
    for i in range(8):
        req.add_read(i * 64)
    req.tick_later()
    engine.run_until(50e-9)
    assert dram.transactions > 0
    engine.run()
    assert dram.transactions == 0


def test_dram_mixed_reads_writes():
    engine = Engine()
    dram = DRAMController("DRAM", engine, latency_cycles=5)
    req = Requester("Req", engine, dram.top_port)
    wire(engine, req.out, dram.top_port)
    req.add_read(0)
    req.add_write(64)
    req.tick_later()
    engine.run()
    assert dram.num_reads == 1
    assert dram.num_writes == 1


# ------------------------------------------------------- RDMA + switch
def _two_chiplet_fabric(engine, msgs_per_cycle=4, link_latency=2):
    """Two RDMA engines joined by a switch; each chiplet's 'L2' is a
    MemoryStub."""
    mapper = AddressMapper(num_chiplets=2)
    switch = ChipletSwitch("Switch", engine, 2,
                           msgs_per_cycle=msgs_per_cycle)
    rdmas, stubs = [], []
    for i in range(2):
        rdma = RDMAEngine(f"RDMA{i}", engine, i)
        stub = MemoryStub(f"L2Stub{i}", engine, latency_cycles=3,
                          buf_capacity=32)
        wire(engine, rdma.l2_port, stub.top_port, name=f"R{i}L2")
        wire(engine, rdma.net_port, switch.switch_port(i),
             latency_cycles=link_latency, name=f"Link{i}")
        switch.add_route(rdma.net_port, i)
        rdmas.append(rdma)
        stubs.append(stub)
    for i, rdma in enumerate(rdmas):
        rdma.connect(
            switch_port=switch.switch_port(i),
            remote_ports={j: r.net_port for j, r in enumerate(rdmas)},
            bank_route=lambda addr, s=stubs[i]: s.top_port,
            chiplet_of=mapper.chiplet_of,
        )
    return mapper, switch, rdmas, stubs


def test_remote_read_round_trip():
    engine = Engine()
    mapper, switch, rdmas, stubs = _two_chiplet_fabric(engine)
    req = Requester("Req", engine, rdmas[0].l1_port)
    wire(engine, req.out, rdmas[0].l1_port, name="ReqRDMA")
    remote_addr = 4096  # page 1 -> chiplet 1
    assert mapper.chiplet_of(remote_addr) == 1
    req.add_read(remote_addr, CACHE_LINE_SIZE)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert len(stubs[1].seen) == 1           # served by the remote chiplet
    assert stubs[0].seen == []
    assert rdmas[0].transactions == 0        # drained after completion


def test_remote_write_round_trip():
    engine = Engine()
    mapper, switch, rdmas, stubs = _two_chiplet_fabric(engine)
    req = Requester("Req", engine, rdmas[0].l1_port)
    wire(engine, req.out, rdmas[0].l1_port, name="ReqRDMA")
    req.add_write(4096 + 128)
    req.tick_later()
    engine.run()
    assert len(req.responses) == 1
    assert stubs[1].seen[0].address == 4096 + 128


def test_rdma_transactions_grow_when_network_is_slow():
    """Case study 1's headline: a slow switch piles transactions up in
    the RDMA engine."""
    engine = Engine()
    mapper, switch, rdmas, stubs = _two_chiplet_fabric(
        engine, msgs_per_cycle=1, link_latency=20)
    req = Requester("Req", engine, rdmas[0].l1_port, buf_capacity=64)
    wire(engine, req.out, rdmas[0].l1_port, name="ReqRDMA")
    for i in range(40):
        req.add_read(4096 + i * 64, CACHE_LINE_SIZE)
    req.tick_later()
    engine.run_until(100e-9)
    assert rdmas[0].transactions > 10
    engine.run()
    assert len(req.responses) == 40
    assert rdmas[0].transactions == 0


def test_switch_routes_between_many_ports():
    engine = Engine()
    mapper, switch, rdmas, stubs = _two_chiplet_fabric(engine)
    req0 = Requester("Req0", engine, rdmas[0].l1_port)
    req1 = Requester("Req1", engine, rdmas[1].l1_port)
    wire(engine, req0.out, rdmas[0].l1_port, name="R0")
    wire(engine, req1.out, rdmas[1].l1_port, name="R1")
    req0.add_read(4096)   # chiplet 0 -> chiplet 1
    req1.add_read(0)      # chiplet 1 -> chiplet 0
    req0.tick_later()
    req1.tick_later()
    engine.run()
    assert len(req0.responses) == 1
    assert len(req1.responses) == 1
    assert switch.num_forwarded == 4  # 2 requests + 2 responses


def test_switch_forwarding_rate_bounds_throughput():
    engine = Engine()
    mapper, switch, rdmas, stubs = _two_chiplet_fabric(
        engine, msgs_per_cycle=1, link_latency=1)
    req = Requester("Req", engine, rdmas[0].l1_port, buf_capacity=64)
    wire(engine, req.out, rdmas[0].l1_port, name="ReqRDMA")
    n = 30
    for i in range(n):
        req.add_read(4096 + i * 64, CACHE_LINE_SIZE)
    req.tick_later()
    engine.run()
    # Each request crosses the switch twice (req + rsp) at 1 msg/cycle.
    assert engine.now >= 2 * n * 1e-9
    assert len(req.responses) == n


def test_address_mapper_interleaving():
    mapper = AddressMapper(num_chiplets=4, banks_per_chiplet=2)
    assert mapper.chiplet_of(0) == 0
    assert mapper.chiplet_of(4096) == 1
    assert mapper.chiplet_of(4 * 4096) == 0
    assert mapper.is_local(0, 0)
    assert not mapper.is_local(4096, 0)
    assert mapper.bank_of(0) == 0
    assert mapper.bank_of(64) == 1
    assert mapper.bank_of(128) == 0
