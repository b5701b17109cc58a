"""The shard boundary layer: codec round-trips, proxy connection
semantics (local passthrough, remote export, quota, parked inbound),
and the injection path."""

import pytest

from repro.akita import Component, DirectConnection, Engine, HookPos, Msg
from repro.gpu.mem import (
    DataReadyRsp,
    NetMsg,
    ReadReq,
    WriteDoneRsp,
    WriteReq,
)
from repro.gpu.platform import GPUPlatform, GPUPlatformConfig
from repro.gpu.protocol import KernelCompleteMsg, LaunchKernelMsg
from repro.shard import (
    BoundaryCodec,
    BoundaryInjector,
    ShardConnection,
    build_port_registry,
)
from repro.workloads import StoreStorm


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

@pytest.fixture()
def rig():
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    StoreStorm(num_workgroups=4, wavefronts_per_wg=1,
               stores_per_wavefront=2).enqueue(platform.driver)
    registry = build_port_registry(platform.simulation)
    codec = BoundaryCodec(registry, platform.driver)
    return platform, registry, codec


def test_launch_round_trip_resolves_kernel_by_index(rig):
    platform, registry, codec = rig
    kernel = platform.driver.kernels[0]
    msg = LaunchKernelMsg(registry["GPU[1].CommandProcessor.ToDriver"],
                          kernel, [1, 3])
    msg.src = registry["Driver.ToGPU"]
    decoded = codec.decode(codec.encode(msg))
    assert isinstance(decoded, LaunchKernelMsg)
    assert decoded.kernel is kernel  # identity, not a copy
    assert decoded.wg_ids == [1, 3]
    assert decoded.dst is msg.dst
    # src survives as a resolvable port: the CP records it as its
    # reply-to address for the completion.
    assert decoded.src is registry["Driver.ToGPU"]


def test_kernel_complete_round_trip(rig):
    _, registry, codec = rig
    msg = KernelCompleteMsg(registry["Driver.ToGPU"], launch_id=7)
    decoded = codec.decode(codec.encode(msg))
    assert isinstance(decoded, KernelCompleteMsg)
    assert decoded.launch_id == 7
    assert decoded.dst is registry["Driver.ToGPU"]


@pytest.mark.parametrize("cls", [ReadReq, WriteReq])
def test_net_mem_req_preserves_request_id(rig, cls):
    _, registry, codec = rig
    payload = cls(None, address=0x1200, access_bytes=4, pid=2)
    original_id = payload.id
    msg = NetMsg(registry["InterChipletSwitch.Port0"], payload,
                 final_dst=registry["GPU[1].RDMA.NetPort"],
                 origin=registry["GPU[0].RDMA.NetPort"])
    decoded = codec.decode(codec.encode(msg))
    assert isinstance(decoded, NetMsg)
    assert type(decoded.payload) is cls
    # The origin RDMA's transaction table is keyed by this id; the
    # remote side's response answers it.
    assert decoded.payload.id == original_id
    assert decoded.payload.address == 0x1200
    assert decoded.final_dst is registry["GPU[1].RDMA.NetPort"]
    assert decoded.origin is registry["GPU[0].RDMA.NetPort"]


def test_net_responses_round_trip(rig):
    _, registry, codec = rig
    ready = DataReadyRsp(None, respond_to=41, data_bytes=64)
    done = WriteDoneRsp(None, respond_to=42)
    for payload in (ready, done):
        msg = NetMsg(registry["InterChipletSwitch.Port1"], payload,
                     final_dst=registry["GPU[0].RDMA.NetPort"],
                     origin=registry["GPU[1].RDMA.NetPort"])
        decoded = codec.decode(codec.encode(msg))
        assert decoded.payload.respond_to == payload.respond_to
        assert decoded.payload.size_bytes == payload.size_bytes


def test_codec_rejects_unknown_messages_and_ports(rig):
    _, registry, codec = rig
    with pytest.raises(TypeError):
        codec.encode(Msg())
    with pytest.raises(ValueError):
        codec.decode({"kind": "kernel_complete", "dst": "No.Such.Port",
                      "src": None, "launch_id": 0})


# ---------------------------------------------------------------------------
# ShardConnection
# ---------------------------------------------------------------------------

class _Sink(Component):
    def __init__(self, name, engine, capacity=2):
        super().__init__(name, engine)
        self.inp = self.add_port("In", capacity)

    def handle(self, event):
        pass


class _Producer(Component):
    def __init__(self, name, engine):
        super().__init__(name, engine)
        self.out = self.add_port("Out", 2)
        self.wakeups = 0

    def notify_available(self, port):
        self.wakeups += 1

    def handle(self, event):
        pass


def _boundary(engine, latency=2e-9):
    exports = []
    conn = ShardConnection("B", engine, latency,
                           lambda msg, at: exports.append((msg, at)))
    return conn, exports


def test_adopted_local_pair_behaves_like_a_direct_connection():
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine)
    original = DirectConnection("Orig", engine, 1e-9)
    original.plug_in(prod.out)
    original.plug_in(sink.inp)
    conn, exports = _boundary(engine)
    conn.adopt(prod.out)
    conn.adopt(sink.inp)
    msg = Msg()
    msg.dst = sink.inp
    assert prod.out.send(msg)
    engine.run()
    assert sink.inp.buf.size == 1
    assert exports == []  # both endpoints local: nothing exported


def test_remote_send_exports_with_arrival_time():
    engine = Engine()
    prod = _Producer("P", engine)
    conn, exports = _boundary(engine, latency=2e-9)
    conn.adopt(prod.out)
    remote = _Sink("R", engine).inp  # NOT adopted: remote
    msg = Msg()
    msg.dst = remote
    assert prod.out.send(msg)
    assert [m for m, _ in exports] == [msg]
    assert exports[0][1] == pytest.approx(engine.now + 2e-9)
    assert conn.exported_count == 1
    assert remote.buf.size == 0  # nothing delivered locally


def test_remote_quota_blocks_then_window_barrier_wakes():
    engine = Engine()
    prod = _Producer("P", engine)
    conn, exports = _boundary(engine)
    conn.adopt(prod.out)
    remote = _Sink("R", engine, capacity=1).inp
    quota = remote.buf.capacity * ShardConnection.QUOTA_FACTOR
    for _ in range(quota):
        msg = Msg()
        msg.dst = remote
        assert prod.out.send(msg)
    over = Msg()
    over.dst = remote
    assert not prod.out.send(over)  # quota exhausted this window
    assert len(exports) == quota
    assert prod.wakeups == 0
    conn.begin_window()
    assert prod.wakeups == 1  # blocked sender woken at the barrier
    assert prod.out.send(over)  # fresh quota
    assert len(exports) == quota + 1


def test_local_export_and_quota_blocked_sends_take_the_one_door():
    """Every send is one ``try_send`` that fires ``PORT_SEND`` itself;
    a quota refusal fires nothing and leaves the message alone."""
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine, capacity=4)
    conn, exports = _boundary(engine)
    conn.adopt(prod.out)
    conn.adopt(sink.inp)
    remote = _Sink("R", engine, capacity=1).inp
    doors, hooked = [], []
    door = conn.try_send

    def counted(src, msg):
        doors.append(msg)
        return door(src, msg)

    conn.try_send = counted
    prod.accept_hook(lambda port, now, msg: hooked.append(msg),
                     positions=(HookPos.PORT_SEND,))
    local = Msg(dst=sink.inp)
    exported = [Msg(dst=remote)
                for _ in range(remote.buf.capacity
                               * ShardConnection.QUOTA_FACTOR)]
    blocked = Msg(dst=remote)
    assert prod.out.send(local)
    assert all(prod.out.send(msg) for msg in exported)
    assert not prod.out.send(blocked)
    assert doors == [local, *exported, blocked]
    assert hooked == [local, *exported]
    assert [msg for msg, _ in exports] == exported
    assert local.src is prod.out and blocked.src is None
    assert prod.out.num_sent == 1 + len(exported)
    assert not hasattr(ShardConnection, "send")
    engine.run()
    assert sink.inp.buf.size == 1


def test_inbound_parks_on_full_buffer_and_drains_on_retrieve():
    engine = Engine()
    sink = _Sink("S", engine, capacity=1)
    conn, _ = _boundary(engine)
    conn.adopt(sink.inp)
    first, second = Msg(), Msg()
    first.dst = second.dst = sink.inp
    assert conn.deliver_inbound(first)
    assert not conn.deliver_inbound(second)  # buffer full: parked
    assert conn.parked_count == 1
    assert sink.inp.buf.size == 1
    # The component consuming its message frees the slot; the parked
    # message takes it before any sender is woken.
    assert sink.inp.retrieve_incoming() is first
    assert sink.inp.buf.size == 1
    assert sink.inp.retrieve_incoming() is second


def test_a_ferried_message_never_takes_a_reserved_slot():
    """A local send reserves the destination's only slot; a ferried
    message arriving before that delivery lands must park, not take the
    slot and leave the local message nowhere to land."""
    engine = Engine()
    src, dst = _Sink("S", engine, capacity=1), _Sink("D", engine, capacity=1)
    conn, _ = _boundary(engine)
    conn.adopt(src.inp)
    conn.adopt(dst.inp)
    local, ferried = Msg(dst=dst.inp), Msg(dst=dst.inp)
    assert src.inp.send(local)
    landed = conn.deliver_inbound(ferried)
    engine.run()  # the reserved delivery lands
    assert not landed and conn.parked_count == 1
    assert list(dst.inp.incoming) == [local]
    assert dst.inp.retrieve_incoming() is local
    assert list(dst.inp.incoming) == [ferried]


def test_injector_delivers_through_the_adopted_connection():
    engine = Engine()
    sink = _Sink("S", engine, capacity=1)
    conn, _ = _boundary(engine)
    conn.adopt(sink.inp)
    injector = BoundaryInjector(engine)
    msg = Msg()
    msg.dst = sink.inp
    injector.inject(msg, deliver_at=5e-9)
    engine.run()
    assert engine.now == pytest.approx(5e-9)
    assert sink.inp.buf.size == 1
    assert injector.injected == 1


def test_injector_clamps_past_arrivals_to_now():
    engine = Engine()
    sink = _Sink("S", engine)
    conn, _ = _boundary(engine)
    conn.adopt(sink.inp)
    # Advance the clock past the nominal arrival.
    engine.run_window(1e-8)
    injector = BoundaryInjector(engine)
    msg = Msg()
    msg.dst = sink.inp
    injector.inject(msg, deliver_at=5e-9)  # in the past
    engine.run()
    assert sink.inp.buf.size == 1
