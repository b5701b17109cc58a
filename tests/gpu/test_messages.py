"""Tests for memory-system message types and address helpers."""

import pytest

from repro.akita import Engine, message as akita_message
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


class _Holder:
    """Bare port stand-in (messages only need an object reference)."""

    def __init__(self, name="P"):
        self.name = name


def test_line_address_alignment():
    assert line_address(0) == 0
    assert line_address(63) == 0
    assert line_address(64) == 64
    assert line_address(130) == 128
    assert CACHE_LINE_SIZE == 64


def test_read_req_fields():
    dst = _Holder()
    req = ReadReq(dst, 0x1234, 4)
    assert req.dst is dst
    assert req.address == 0x1234
    assert req.access_bytes == 4
    assert req.line_addr == 0x1200
    assert isinstance(req, MemReq)


def test_write_req_wire_size_includes_payload():
    req = WriteReq(_Holder(), 0, 64)
    small = WriteReq(_Holder(), 0, 4)
    assert req.size_bytes > small.size_bytes
    assert req.size_bytes == 16 + 64


def test_responses_reference_their_request():
    req = ReadReq(_Holder(), 0, 4)
    rsp = DataReadyRsp(_Holder(), req.id, 64)
    assert rsp.respond_to == req.id
    assert isinstance(rsp, MemRsp)
    ack = WriteDoneRsp(_Holder(), req.id)
    assert ack.respond_to == req.id


def test_data_ready_wire_size_includes_data():
    big = DataReadyRsp(_Holder(), 1, data_bytes=64)
    small = DataReadyRsp(_Holder(), 1, data_bytes=4)
    assert big.size_bytes > small.size_bytes


def test_eviction_and_fill_carry_line_payloads():
    ev = EvictionReq(_Holder(), 0x80)
    assert ev.address == 0x80
    assert ev.size_bytes == 16 + CACHE_LINE_SIZE
    fill = FetchedData(_Holder(), 0x80, respond_to=7)
    assert fill.address == 0x80
    assert fill.respond_to == 7


def test_netmsg_wraps_payload_with_overhead():
    payload = ReadReq(_Holder(), 0, 64)
    origin, final = _Holder("origin"), _Holder("final")
    envelope = NetMsg(_Holder("switch"), payload, final, origin)
    assert envelope.payload is payload
    assert envelope.final_dst is final
    assert envelope.origin is origin
    assert envelope.size_bytes == payload.size_bytes + 8


def test_message_ids_are_unique_and_increasing():
    a = ReadReq(_Holder(), 0, 4)
    b = WriteReq(_Holder(), 0, 4)
    c = EvictionReq(_Holder(), 0)
    assert a.id < b.id < c.id


_KERNEL = object()  # messages only carry the reference

#: One constructor call per concrete message class of the three modules.
MAKE = {
    Msg: lambda: Msg(_Holder()),
    GeneralRsp: lambda: GeneralRsp(_Holder(), 1),
    ControlMsg: lambda: ControlMsg(_Holder(), "flush"),
    MemReq: lambda: MemReq(_Holder(), 0, 4),
    ReadReq: lambda: ReadReq(_Holder(), 0, 4),
    WriteReq: lambda: WriteReq(_Holder(), 0, 4),
    MemRsp: lambda: MemRsp(_Holder(), 1, 16),
    DataReadyRsp: lambda: DataReadyRsp(_Holder(), 1),
    WriteDoneRsp: lambda: WriteDoneRsp(_Holder(), 1),
    EvictionReq: lambda: EvictionReq(_Holder(), 0),
    FetchedData: lambda: FetchedData(_Holder(), 0, 1),
    NetMsg: lambda: NetMsg(_Holder(), Msg(_Holder()), _Holder(), _Holder()),
    LaunchKernelMsg: lambda: LaunchKernelMsg(_Holder(), _KERNEL, [0]),
    MapWGMsg: lambda: MapWGMsg(_Holder(), _KERNEL, 0, 0),
    WGCompleteMsg: lambda: WGCompleteMsg(_Holder(), _KERNEL, 0, 0),
    KernelCompleteMsg: lambda: KernelCompleteMsg(_Holder(), 0),
}


def _message_classes():
    found = {Msg}
    for module in (akita_message, mem, protocol):
        found.update(value for value in vars(module).values()
                     if isinstance(value, type) and issubclass(value, Msg))
    return found


def test_every_message_class_has_a_constructor_call_here():
    assert set(MAKE) == _message_classes()


@pytest.mark.parametrize("cls", sorted(MAKE, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_ids_follow_a_fast_forwarded_counter(cls):
    """A checkpoint restore fast-forwards the id counter by *rebinding*
    a module global.  A constructor that fills ``Msg``'s slots itself
    and captured the old counter by value would go on minting stale
    ids — and answer requests frozen in the snapshot."""
    floor = akita_message.msg_id_watermark() + 10**9
    akita_message.ensure_msg_ids_at_least(floor)
    msg = MAKE[cls]()
    assert type(msg) is cls and msg.id >= floor
    assert msg.src is None and msg.send_time == -1.0
    later = [make().id for make in MAKE.values()]
    assert later == sorted(set(later)) and later[0] > msg.id
