"""Tests for the bounded buffer, including hypothesis invariants.

A buffer is filled and drained by its port (``Port.deliver``,
``Port.retrieve_incoming``) and admits by one rule,
``Buffer.free_slots``, which counts the slots a connection reserved.
"""

import pytest
from hypothesis import given, strategies as st

from repro.akita import (Buffer, BufferError_, ConfigurationError,
                         DirectConnection, Engine, Msg, Port)


def test_requires_positive_capacity():
    with pytest.raises(ConfigurationError):
        Buffer("b", 0)
    with pytest.raises(ConfigurationError):
        Buffer("b", -3)


def test_push_pop_fifo():
    port = Port(None, "P", 3)
    for item in (1, 2, 3):
        port.deliver(item)
    assert list(port.buf) == [1, 2, 3]
    assert [port.retrieve_incoming() for _ in range(3)] == [1, 2, 3]
    assert port.buf.size == 0


def test_push_full_raises():
    port = Port(None, "P", 1)
    port.deliver("x")
    assert port.buf.free_slots == 0
    with pytest.raises(BufferError_, match="push to full buffer P.Buf"):
        port.deliver("y")
    assert list(port.buf) == ["x"]


def test_peek_returns_oldest_without_removal():
    port = Port(None, "P", 2)
    assert port.peek_incoming() is None
    port.deliver("a")
    port.deliver("b")
    assert port.peek_incoming() == "a"
    assert port.buf.size == 2


def test_fullness_and_free_slots():
    port = Port(None, "P", 4)
    buf = port.buf
    assert buf.fullness == 0.0
    assert buf.free_slots == 4
    port.deliver(1)
    port.deliver(2)
    assert buf.fullness == 0.5
    assert buf.free_slots == 2
    buf.pin()
    assert buf.fullness == 1.0 and buf.free_slots == 0
    buf.pin(False)
    assert buf.free_slots == 2


def test_free_slots_counts_the_slots_reserved_in_flight():
    """A send takes a slot at once; its delivery turns the reservation
    into an item, so the count of free slots does not move again."""
    engine = Engine()
    src, dst = Port(None, "Src", 1), Port(None, "Dst", 3)
    conn = DirectConnection("C", engine)
    conn.plug_in(src)
    conn.plug_in(dst)
    dst.deliver("queued")
    assert src.send(Msg(dst=dst))
    buf = dst.buf
    assert (buf.size, buf._reserved, buf.free_slots) == (1, 1, 1)
    assert buf.fullness == pytest.approx(1 / 3), "occupancy counts items"
    assert src.send(Msg(dst=dst))
    assert buf.free_slots == 0 and not src.send(Msg(dst=dst))
    engine.run()
    assert (buf.size, buf._reserved, buf.free_slots) == (3, 0, 0)


def test_name_propagates():
    buf = Buffer("GPU[0].SA[1].Port.Buf", 8)
    assert buf.name == "GPU[0].SA[1].Port.Buf"


@given(st.lists(st.sampled_from(["push", "pop"]), max_size=300),
       st.integers(min_value=1, max_value=16))
def test_buffer_invariants_under_random_ops(ops, capacity):
    """0 <= size <= capacity always; FIFO order is preserved."""
    port = Port(None, "P", capacity)
    buf = port.buf
    model = []
    counter = 0
    for op in ops:
        if op == "push" and buf.free_slots > 0:
            port.deliver(counter)
            model.append(counter)
            counter += 1
        elif op == "pop" and buf.size > 0:
            assert port.retrieve_incoming() == model.pop(0)
        assert 0 <= buf.size <= capacity
        assert buf.size == len(model)
        assert buf.free_slots == capacity - len(model)
        assert (buf.fullness == 1.0) == (buf.free_slots == 0)
    assert list(buf) == model
