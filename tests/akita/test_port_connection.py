"""Tests for ports and direct connections: latency, backpressure, wakeups."""

from collections import deque

import pytest

from repro.akita import (
    Component,
    ConfigurationError,
    Connection,
    DirectConnection,
    Engine,
    HookPos,
    Msg,
    Port,
    PortError,
    TickEvent,
    TickingComponent,
)


class _Sink(Component):
    """A component that never consumes messages (creates backpressure)."""

    def __init__(self, name, engine, buf_capacity=2):
        super().__init__(name, engine)
        self.inp = self.add_port("In", buf_capacity)

    def handle(self, event):
        pass


class _Producer(Component):
    def __init__(self, name, engine):
        super().__init__(name, engine)
        self.out = self.add_port("Out", 2)

    def handle(self, event):
        pass


def _wire(engine, *ports, latency=1e-9):
    conn = DirectConnection("Conn", engine, latency)
    for p in ports:
        conn.plug_in(p)
    return conn


def test_port_names_are_hierarchical():
    engine = Engine()
    sink = _Sink("Sys.Sink", engine)
    assert sink.inp.name == "Sys.Sink.In"
    assert sink.inp.buf.name == "Sys.Sink.In.Buf"


def test_send_without_connection_raises():
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine)
    with pytest.raises(PortError):
        prod.out.send(Msg(dst=sink.inp))


def test_double_connect_raises():
    engine = Engine()
    prod = _Producer("P", engine)
    c1 = DirectConnection("C1", engine)
    c1.plug_in(prod.out)
    c2 = DirectConnection("C2", engine)
    with pytest.raises(PortError):
        c2.plug_in(prod.out)


def test_message_delivered_after_latency():
    engine = Engine()
    prod = _Producer("P", engine)
    sink = _Sink("S", engine)
    _wire(engine, prod.out, sink.inp, latency=3e-9)
    msg = Msg(dst=sink.inp)
    assert prod.out.send(msg)
    assert sink.inp.buf.size == 0
    engine.run()
    assert engine.now == pytest.approx(3e-9)
    assert sink.inp.peek_incoming() is msg
    assert msg.src is prod.out


def test_backpressure_counts_inflight_messages():
    engine = Engine()
    prod = _Producer("P", engine)
    sink = _Sink("S", engine, buf_capacity=2)
    _wire(engine, prod.out, sink.inp)
    assert prod.out.send(Msg(dst=sink.inp))
    assert prod.out.send(Msg(dst=sink.inp))
    # Two slots reserved by in-flight messages: a third send must fail.
    assert sink.inp.buf._reserved == 2 and sink.inp.buf.free_slots == 0
    third = Msg(dst=sink.inp)
    assert prod.out.send(third) is False
    engine.run()
    assert sink.inp.buf.size == 2 and sink.inp.buf._reserved == 0


def test_retrieve_frees_slot_and_allows_new_send():
    engine = Engine()
    prod = _Producer("P", engine)
    sink = _Sink("S", engine, buf_capacity=1)
    _wire(engine, prod.out, sink.inp)
    assert prod.out.send(Msg(dst=sink.inp))
    engine.run()
    assert sink.inp.buf.free_slots == 0
    assert prod.out.send(Msg(dst=sink.inp)) is False
    got = sink.inp.retrieve_incoming()
    assert got is not None
    assert sink.inp.buf.free_slots == 1
    assert prod.out.send(Msg(dst=sink.inp))


def test_retrieve_empty_returns_none():
    engine = Engine()
    sink = _Sink("S", engine)
    assert sink.inp.retrieve_incoming() is None


def test_in_order_delivery_per_pair():
    engine = Engine()
    prod = _Producer("P", engine)
    sink = _Sink("S", engine, buf_capacity=8)
    _wire(engine, prod.out, sink.inp)
    msgs = [Msg(dst=sink.inp) for _ in range(5)]
    for m in msgs:
        assert prod.out.send(m)
    engine.run()
    received = []
    while (m := sink.inp.retrieve_incoming()) is not None:
        received.append(m)
    assert received == msgs


class _RetryingProducer(TickingComponent):
    """Sends `total` messages, retrying under backpressure, then sleeps."""

    def __init__(self, name, engine, dst_port, total):
        super().__init__(name, engine)
        self.out = self.add_port("Out", 2)
        self.dst_port = dst_port
        self.remaining = total

    def tick(self):
        if self.remaining == 0:
            return False
        if self.out.send(Msg(dst=self.dst_port)):
            self.remaining -= 1
            return True
        return False


class _SlowConsumer(TickingComponent):
    """Consumes one message every `every` cycles."""

    def __init__(self, name, engine, every=4, buf_capacity=2):
        super().__init__(name, engine)
        self.inp = self.add_port("In", buf_capacity)
        self.every = every
        self._count = 0
        self.consumed = 0

    def tick(self):
        self._count += 1
        if self._count % self.every != 0:
            return True  # keep counting cycles while messages pending
        if self.inp.retrieve_incoming() is not None:
            self.consumed += 1
            return True
        return False


def test_notify_available_wakes_blocked_sender():
    """A producer blocked on a full buffer must finish once the consumer
    drains — the no-lost-wakeup property that keeps simulations live."""
    engine = Engine()
    consumer = _SlowConsumer("C", engine, every=3, buf_capacity=1)
    producer = _RetryingProducer("P", engine, consumer.inp, total=10)
    _wire(engine, producer.out, consumer.inp)
    producer.tick_later()
    engine.run()
    assert producer.remaining == 0
    assert consumer.consumed == 10


def test_connection_counts_messages():
    engine = Engine()
    prod = _Producer("P", engine)
    sink = _Sink("S", engine, buf_capacity=4)
    conn = _wire(engine, prod.out, sink.inp)
    for _ in range(3):
        prod.out.send(Msg(dst=sink.inp))
    assert conn.msg_count == 3


def test_negative_latency_is_a_construction_error():
    """``send()`` pushes its delivery without asking ``schedule()``
    whether it lies in the past; the premise is checked here, once."""
    engine = Engine()
    for latency in (-1e-9, float("nan")):
        with pytest.raises(ConfigurationError, match="latency"):
            DirectConnection("Conn", engine, latency)
    DirectConnection("Conn", engine, 0.0)


def test_incoming_is_the_buffers_own_queue():
    sink = _Sink("Sink", Engine())
    port = sink.inp
    assert port.incoming is port.buf._items
    port.deliver(Msg(dst=port))
    assert list(port.incoming) == [port.peek_incoming()]
    port.retrieve_incoming()
    assert port.incoming is port.buf._items and not port.incoming


class _ToldEverything(Component):
    """Not a ticking component: nothing says a wake-up is redundant."""

    def __init__(self, name, engine):
        super().__init__(name, engine)
        self.port_ = self.add_port("Port", 8)
        self.recv = []
        self.available = []

    def handle(self, event):
        pass

    def notify_recv(self, port):
        self.recv.append(port)

    def notify_available(self, port):
        self.available.append(port)


def test_a_plain_component_is_told_of_every_delivery_and_retrieve():
    engine = Engine()
    a, b = _ToldEverything("A", engine), _ToldEverything("B", engine)
    _wire(engine, a.port_, b.port_)
    for _ in range(3):
        assert a.port_.send(Msg(dst=b.port_))
    engine.run()
    assert b.recv == [b.port_] * 3 and a.recv == []
    for n in range(1, 4):
        assert b.port_.retrieve_incoming() is not None
        assert a.available == [a.port_] * n
    assert b.available == []  # the retrieving side is not its own sender


class _Forwarder(TickingComponent):
    """Moves messages from In to Out, one per cycle."""

    def __init__(self, name, engine):
        super().__init__(name, engine)
        self.inp = self.add_port("In", 8)
        self.out = self.add_port("Out", 8)
        self.told = 0

    def tick(self):
        return self.inp.retrieve_incoming() is not None

    def notify_recv(self, port):
        self.told += 1
        super().notify_recv(port)

    def notify_available(self, port):
        self.told += 1
        super().notify_available(port)


def test_a_component_due_next_cycle_is_not_told_and_not_scheduled_twice():
    engine = Engine()
    ticks = []
    engine.accept_hook(
        lambda ctx: ticks.append(ctx.now)
        if isinstance(ctx.item, TickEvent) else None,
        positions=(HookPos.BEFORE_EVENT,))
    fwd = _Forwarder("F", engine)
    src, sink = _Producer("P", engine), _Sink("S", engine, 8)
    _wire(engine, src.out, fwd.inp)
    _wire(engine, fwd.out, sink.inp)
    # Asleep: the first delivery is a wake-up, the two landing at the
    # same instant find the tick already pending.
    for _ in range(3):
        assert src.out.send(Msg(dst=fwd.inp))
    engine.run_until(1e-9)
    assert fwd.told == 1 and engine.pending_event_count == 1
    # Due next cycle: a freed slot downstream tells it nothing either.
    fwd.out.send(Msg(dst=sink.inp))
    engine.run_until(1e-9)
    sink.inp.retrieve_incoming()
    assert fwd.told == 1
    engine.run()
    # Three messages, one tick each, and the one that found nothing.
    assert fwd.tick_count == 4 and fwd.asleep
    assert ticks == pytest.approx([2e-9, 3e-9, 4e-9, 5e-9])


# -- Port.drain ----------------------------------------------------------
def test_drain_stops_at_the_first_refusal_and_leaves_the_head_queued():
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine, buf_capacity=2)
    _wire(engine, prod.out, sink.inp)
    msgs = [Msg(dst=sink.inp) for _ in range(3)]
    queue = deque(msgs)
    assert prod.out.drain(queue, 10) == 2
    assert list(queue) == [msgs[2]] and msgs[2].src is None
    assert prod.out.num_sent == 2
    assert prod.out.drain(queue, 10) == 0, "still refused: nothing moves"
    assert list(queue) == [msgs[2]]
    engine.run()
    assert list(sink.inp.incoming) == msgs[:2]
    sink.inp.retrieve_incoming()
    assert prod.out.drain(queue, 10) == 1 and not queue


def test_drain_stops_at_its_limit():
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine, buf_capacity=8)
    _wire(engine, prod.out, sink.inp)
    msgs = [Msg(dst=sink.inp) for _ in range(5)]
    queue = deque(msgs)
    assert prod.out.drain(queue, 3) == 3
    assert list(queue) == msgs[3:]
    assert prod.out.drain(queue, 3) == 2 and not queue
    assert prod.out.drain(queue, 3) == 0
    assert prod.out.num_sent == 5


def test_drain_without_connection_raises():
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine)
    queue = deque([Msg(dst=sink.inp)])
    with pytest.raises(PortError):
        prod.out.drain(queue, 1)
    assert len(queue) == 1


# -- the one door: DirectConnection.try_send ---------------------------
def test_a_refused_try_send_changes_nothing():
    engine = Engine()
    prod, sink = _Producer("P", engine), _Sink("S", engine, buf_capacity=1)
    conn = _wire(engine, prod.out, sink.inp)
    sent = []
    prod.accept_hook(lambda port, now, msg: sent.append(msg),
                     positions=(HookPos.PORT_SEND,))
    first, refused = Msg(dst=sink.inp), Msg(dst=sink.inp)
    assert conn.try_send(prod.out, first)
    before = (prod.out.num_sent, conn.msg_count, sink.inp.buf._reserved,
              engine.pending_event_count)
    assert conn.try_send(prod.out, refused) is False
    assert prod.out.send(refused) is False
    assert sent == [first], "no hook fires for a refusal"
    assert (prod.out.num_sent, conn.msg_count, sink.inp.buf._reserved,
            engine.pending_event_count) == before
    assert refused.src is None and first.src is prod.out


def test_a_dropped_send_is_traced_before_its_drop_and_wakes_the_sender():
    engine = Engine()
    prod = _ToldEverything("P", engine)
    sink = _Sink("S", engine, buf_capacity=1)
    conn = _wire(engine, prod.port_, sink.inp)
    trace = []
    prod.accept_hook(lambda port, now, msg: trace.append(("send", msg)),
                     positions=(HookPos.PORT_SEND,))

    def drop(ctx):
        ctx.item.drop = True

    conn.accept_hook(drop, positions=(HookPos.CONN_TRANSFER,))
    conn.accept_hook(lambda ctx: trace.append(("drop", ctx.item.msg)),
                     positions=(HookPos.CONN_DROP,))
    msg = Msg(dst=sink.inp)
    assert prod.port_.send(msg), "a lossy link still counts the send"
    assert trace == [("send", msg), ("drop", msg)]
    assert prod.available == [prod.port_], "the freed slot wakes it"
    assert sink.inp.buf._reserved == 0 and conn.dropped_count == 1
    assert prod.port_.num_sent == 1 and sink.inp.buf.free_slots == 1
    engine.run()
    assert sink.inp.buf.size == 0
    assert prod.port_.send(Msg(dst=sink.inp)), "the slot was given back"


def test_the_connection_protocol_names_try_send():
    class _SendOnly:
        def plug_in(self, port): ...
        def send(self, src, msg): ...
        def notify_available(self, port): ...

    assert isinstance(DirectConnection("C", Engine()), Connection)
    assert not isinstance(_SendOnly(), Connection)
    assert not hasattr(DirectConnection, "send")
