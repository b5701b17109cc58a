"""Tests for memory-system message types and address helpers."""

import pytest

from repro.akita import Component, Engine, message as akita_message
from repro.akita.message import ControlMsg, GeneralRsp, Msg
from repro.gpu import mem, protocol
from repro.gpu import (
    CACHE_LINE_SIZE,
    DataReadyRsp,
    EvictionReq,
    FetchedData,
    NetMsg,
    ReadReq,
    WriteDoneRsp,
    WriteReq,
    line_address,
)
from repro.gpu.mem import MemReq, MemRsp
from repro.gpu.protocol import (KernelCompleteMsg, LaunchKernelMsg,
                                MapWGMsg, WGCompleteMsg)


def _port(name="P", engine=None):
    """A real port: a message takes its id from its destination's
    engine."""
    return Component("Box", engine or Engine()).add_port(name)


def test_line_address_alignment():
    assert line_address(0) == 0
    assert line_address(63) == 0
    assert line_address(64) == 64
    assert line_address(130) == 128
    assert CACHE_LINE_SIZE == 64


def test_read_req_fields():
    dst = _port()
    req = ReadReq(dst, 0x1234, 4)
    assert req.dst is dst
    assert req.address == 0x1234
    assert req.access_bytes == 4
    assert req.line_addr == 0x1200
    assert isinstance(req, MemReq)


def test_write_req_wire_size_includes_payload():
    req = WriteReq(_port(), 0, 64)
    small = WriteReq(_port(), 0, 4)
    assert req.size_bytes > small.size_bytes
    assert req.size_bytes == 16 + 64


def test_responses_reference_their_request():
    req = ReadReq(_port(), 0, 4)
    rsp = DataReadyRsp(_port(), req.id, 64)
    assert rsp.respond_to == req.id
    assert isinstance(rsp, MemRsp)
    ack = WriteDoneRsp(_port(), req.id)
    assert ack.respond_to == req.id


def test_data_ready_wire_size_includes_data():
    big = DataReadyRsp(_port(), 1, data_bytes=64)
    small = DataReadyRsp(_port(), 1, data_bytes=4)
    assert big.size_bytes > small.size_bytes


@pytest.mark.parametrize("cls", [ReadReq, WriteReq],
                         ids=lambda c: c.__name__)
def test_a_request_forwards_itself(cls):
    req = cls(_port("Up"), 0x1234, 8, pid=3)
    here = req.dst.component.engine.next_msg_id
    below = _port("Below")
    engine = below.component.engine
    minted = engine.next_msg_id
    fwd = req.forward(below)
    assert type(fwd) is cls and fwd is not req
    assert fwd.dst is below and fwd.src is None
    assert (fwd.address, fwd.access_bytes, fwd.pid) == (0x1234, 8, 3)
    assert fwd.size_bytes == req.size_bytes
    assert fwd.id == minted and engine.next_msg_id == minted + 1
    assert req.dst.component.engine.next_msg_id == here


@pytest.mark.parametrize("cls, rsp_cls, size", [
    (ReadReq, DataReadyRsp, 16 + 8),
    (WriteReq, WriteDoneRsp, 16),
], ids=["ReadReq", "WriteReq"])
def test_a_request_replies_for_itself(cls, rsp_cls, size):
    req = cls(_port("Below"), 0x1234, 8, pid=3)
    here = req.dst.component.engine.next_msg_id
    up = _port("Up")
    engine = up.component.engine
    minted = engine.next_msg_id
    rsp = req.reply(up)
    assert type(rsp) is rsp_cls
    assert rsp.dst is up and rsp.src is None and rsp.respond_to == req.id
    assert rsp.size_bytes == size
    assert rsp.id == minted and engine.next_msg_id == minted + 1
    assert req.dst.component.engine.next_msg_id == here


def test_eviction_and_fill_carry_line_payloads():
    ev = EvictionReq(_port(), 0x80)
    assert ev.address == 0x80
    assert ev.size_bytes == 16 + CACHE_LINE_SIZE
    fill = FetchedData(_port(), 0x80, respond_to=7)
    assert fill.address == 0x80
    assert fill.respond_to == 7


def test_netmsg_wraps_payload_with_overhead():
    payload = ReadReq(_port(), 0, 64)
    origin, final = _port("origin"), _port("final")
    envelope = NetMsg(_port("switch"), payload, final, origin)
    assert envelope.payload is payload
    assert envelope.final_dst is final
    assert envelope.origin is origin
    assert envelope.size_bytes == payload.size_bytes + 8


def test_message_ids_are_unique_and_increasing():
    dst = _port()
    a = ReadReq(dst, 0, 4)
    b = WriteReq(dst, 0, 4)
    c = EvictionReq(dst, 0)
    assert [a.id, b.id, c.id] == [0, 1, 2]
    assert dst.component.engine.next_msg_id == 3


_KERNEL = object()  # messages only carry the reference

#: One constructor call per concrete message class of the three
#: modules, every address on port *p*.
MAKE = {
    Msg: lambda p: Msg(p),
    GeneralRsp: lambda p: GeneralRsp(p, 1),
    ControlMsg: lambda p: ControlMsg(p, "flush"),
    MemReq: lambda p: MemReq(p, 0, 4),
    ReadReq: lambda p: ReadReq(p, 0, 4),
    WriteReq: lambda p: WriteReq(p, 0, 4),
    MemRsp: lambda p: MemRsp(p, 1, 16),
    DataReadyRsp: lambda p: DataReadyRsp(p, 1),
    WriteDoneRsp: lambda p: WriteDoneRsp(p, 1),
    EvictionReq: lambda p: EvictionReq(p, 0),
    FetchedData: lambda p: FetchedData(p, 0, 1),
    NetMsg: lambda p: NetMsg(p, Msg(p), p, p),
    LaunchKernelMsg: lambda p: LaunchKernelMsg(p, _KERNEL, [0]),
    MapWGMsg: lambda p: MapWGMsg(p, _KERNEL, 0, 0),
    WGCompleteMsg: lambda p: WGCompleteMsg(p, _KERNEL, 0, 0),
    KernelCompleteMsg: lambda p: KernelCompleteMsg(p, 0),
}


def _message_classes():
    found = {Msg}
    for module in (akita_message, mem, protocol):
        found.update(value for value in vars(module).values()
                     if isinstance(value, type) and issubclass(value, Msg))
    return found


def test_every_message_class_has_a_constructor_call_here():
    assert set(MAKE) == _message_classes()


def _minted(msg):
    """Ids *msg*'s construction took, in order (an envelope's payload
    is built first)."""
    payload = getattr(msg, "payload", None)
    return ([payload.id] if payload is not None else []) + [msg.id]


@pytest.mark.parametrize("cls", sorted(MAKE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_ids_follow_a_fast_forwarded_counter(cls):
    """Two simulations in one process, their constructions interleaved:
    each numbers in its own order from its engine's ``next_msg_id`` —
    0, 1, 2 … for a fresh one, on from the saved number for a restored
    one (here fast-forwarded by hand) — whatever the other built.  A
    constructor that fills ``Msg``'s slots itself must read the
    destination's engine like ``Msg.__init__`` does."""
    fresh, restored = _port("A"), _port("B")
    floor = restored.component.engine.next_msg_id = 10**9
    ids = {fresh: [], restored: []}
    for port in (fresh, restored, restored, fresh, restored, fresh, fresh):
        msg = MAKE[cls](port)
        assert type(msg) is cls and msg.dst is port
        assert msg.src is None and msg.send_time == -1.0
        ids[port] += _minted(msg)
    for port, start in ((fresh, 0), (restored, floor)):
        assert ids[port] == list(range(start, start + len(ids[port])))
        assert port.component.engine.next_msg_id == start + len(ids[port])
