"""Format-on-read equals format-on-write.

The tracer notes raw records while the simulation runs and a reader
turns them into :class:`TraceEvent`\\ s; these tests pin that the reader
sees exactly what the old eager tracer wrote.
"""

import sys
import threading
from pathlib import Path

import pytest

from repro.akita import Component, DirectConnection, Engine, Msg
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.gpu.mem import DataReadyRsp, ReadReq
from repro.trace import (RingStore, SQLiteStore, TraceEvent, TraceKind,
                         Tracer)
from repro.workloads import FIR
from tests.trace import golden

HERE = Path(__file__).parent


@pytest.mark.parametrize("backend", ["ring", "sqlite"])
def test_export_is_byte_identical_to_the_eager_tracer(backend):
    """``data/fir256.jsonl`` was exported by the eager tracer (see
    ``golden.py``).  Ids belong to the simulation, so the export is the
    same in this process after another FIR(256) has already run."""
    earlier = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_samples=256).enqueue(earlier.driver)
    assert earlier.run()
    assert golden.traced_fir_jsonl(backend) \
        == (HERE / "data" / "fir256.jsonl").read_text()


# ----------------------------------------------------------------------
# A request/response pair through two components
# ----------------------------------------------------------------------
class _Client(Component):
    def __init__(self, engine):
        super().__init__("Sys.Client", engine)
        self.out = self.add_port("Out", 2)

    def notify_recv(self, port):
        port.retrieve_incoming()


class _Memory(Component):
    def __init__(self, engine):
        super().__init__("Sys.Mem", engine)
        self.top = self.add_port("Top", 4)

    def notify_recv(self, port):
        req = port.retrieve_incoming()
        self.top.send(DataReadyRsp(req.src, req.id))


class _Sim:
    def __init__(self):
        self.engine = Engine()
        self.client = _Client(self.engine)
        self.memory = _Memory(self.engine)
        self.link = DirectConnection("Sys.Link", self.engine)
        self.link.plug_in(self.client.out)
        self.link.plug_in(self.memory.top)
        self.components = [self.client, self.memory]
        self.connections = [self.link]


@pytest.fixture
def pair():
    sim = _Sim()
    tracer = Tracer(sim, RingStore(64))
    tracer.start()
    request = ReadReq(sim.memory.top, 0x40, 64)
    assert sim.client.out.send(request)
    sim.engine.run()
    tracer.stop()
    return tracer, request


def test_follow_pairs_a_request_with_its_response(pair):
    tracer, request = pair
    hops = tracer.follow(request.id)
    response_id = hops[-1].msg_id
    assert [(ev.seq, ev.kind, ev.component, ev.msg_id, ev.msg_type,
             ev.extra) for ev in hops] == [
        (0, "send", "Sys.Client", request.id, "ReadReq", ""),
        (1, "deliver", "Sys.Mem", request.id, "ReadReq", "1/4"),
        (2, "retrieve", "Sys.Mem", request.id, "ReadReq", "0/4"),
        (3, "send", "Sys.Mem", response_id, "DataReadyRsp",
         f"re:{request.id}"),
        (4, "deliver", "Sys.Client", response_id, "DataReadyRsp",
         f"1/2 re:{request.id}"),
        (5, "retrieve", "Sys.Client", response_id, "DataReadyRsp",
         f"0/2 re:{request.id}"),
    ]
    assert hops[0].what == hops[0].src == "Sys.Client.Out"
    assert hops[0].dst == hops[1].what == "Sys.Mem.Top"
    assert all(isinstance(ev, TraceEvent) for ev in hops)


def test_path_renders_both_directions(pair):
    tracer, request = pair
    response_id = tracer.follow(request.id)[-1].msg_id
    assert tracer.path(request.id) == [
        f"t=0 sent ReadReq#{request.id}: Sys.Client.Out -> Sys.Mem.Top",
        "t=1e-09 delivered at Sys.Mem.Top (buf 1/4)",
        "t=1e-09 consumed by Sys.Mem",
        f"t=1e-09 sent DataReadyRsp#{response_id}: "
        "Sys.Mem.Top -> Sys.Client.Out",
        f"t=2e-09 delivered at Sys.Client.Out (buf 1/2 re:{request.id})",
        "t=2e-09 consumed by Sys.Client",
    ]


def test_records_hold_no_message(pair):
    """A ring of records must not keep every message of the run alive."""
    tracer, _ = pair
    for record in tracer.store._ring:
        assert not any(isinstance(field, Msg) for field in record)


# ----------------------------------------------------------------------
# The stores' two doors: put(raw record) and append(TraceEvent)
# ----------------------------------------------------------------------
def _put(store, i, port):
    """What a tracer hook does: mint, build, hand over."""
    store.put((store.seq(), i * 1e-9,
               TraceKind.SEND if i % 2 else TraceKind.DELIVER, port, None,
               i, ReadReq, port, port, i % 2 or None, None))


@pytest.mark.parametrize("backend", ["ring", "sqlite"])
def test_counts_stay_exact_across_reads_and_clear(backend, tmp_path):
    port = _Sim().client.out
    ring = backend == "ring"
    if ring:
        store = RingStore(capacity=8)
    else:
        store = SQLiteStore(str(tmp_path / "trace.db"))
        store.batch_size = 4
    for i in range(12):
        _put(store, i, port)
        # A read takes no sequence number and miscounts nothing.
        assert store.recorded == i + 1 == store.stats()["recorded"]
        assert store.dropped == (max(0, i + 1 - 8) if ring else 0)
        assert store.tail(1)[0].seq == i == store.query(limit=0)[-1].seq
    store.clear()
    assert len(store) == 0 and store.recorded == 12
    assert store.dropped == (12 if ring else 0)
    assert store.append(TraceEvent(0.0, TraceKind.DROP, "c")).seq == 12
    _put(store, 13, port)
    assert [ev.seq for ev in store.query(limit=0)] == [12, 13]
    assert store.recorded == 14 and len(store) == 2
    assert store.dropped == (12 if ring else 0)
    store.close()


def test_seq_stays_continuous_under_overwrite():
    port = _Sim().client.out
    store = RingStore(capacity=8)
    for i in range(30):
        # Both entry points share one numbering.
        if i % 5 == 0:
            store.append(TraceEvent(i * 1e-9, TraceKind.DROP, "c"))
        else:
            _put(store, i, port)
    assert store.recorded == 30 and store.dropped == 22 and len(store) == 8
    assert [ev.seq for ev in store.query(limit=0)] == list(range(22, 30))
    assert [ev.seq for ev in store.tail(3)] == [27, 28, 29]
    assert [ev.seq for ev in store.query(kind=TraceKind.DROP)] == [25]
    assert [ev.msg_id for ev in store.query(kind=TraceKind.SEND,
                                            limit=2)] == [27, 29]


def test_query_racing_concurrent_appends_sees_a_consistent_prefix():
    port = _Sim().client.out
    store = RingStore(capacity=256)
    stop = threading.Event()

    def writer():
        i = 0
        while not stop.is_set():
            _put(store, i, port)
            i += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    thread = threading.Thread(target=writer)
    try:
        thread.start()
        last_seen = -1
        for _ in range(200):
            events = store.query(limit=0)
            if not events:
                continue
            seqs = [ev.seq for ev in events]
            # One snapshot: gap-free, each record formatted from its
            # own fields, and never older than an earlier answer.
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
            assert all(ev.msg_id == ev.seq for ev in events)
            assert seqs[-1] >= last_seen
            last_seen = seqs[-1]
            limited = store.query(kind=TraceKind.SEND, limit=10)
            assert len(limited) <= 10
            assert all(ev.kind == TraceKind.SEND for ev in limited)
    finally:
        stop.set()
        thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert last_seen > 0
