"""Tests for events and the event queue ordering rules."""

import pickle
import threading
import warnings

import pytest
from hypothesis import given, strategies as st

from repro.akita import Event, EventQueue, TickEvent


class _Recorder:
    def __init__(self):
        self.seen = []

    def handle(self, event):
        self.seen.append(event)


def test_tick_event_is_secondary():
    h = _Recorder()
    assert TickEvent(1.0, h).secondary is True
    assert Event(1.0, h).secondary is False


def test_queue_orders_by_time():
    h = _Recorder()
    q = EventQueue()
    late = Event(2.0, h)
    early = Event(1.0, h)
    q.push(late)
    q.push(early)
    assert q.pop() is early
    assert q.pop() is late


def test_primary_before_secondary_at_same_time():
    h = _Recorder()
    q = EventQueue()
    secondary = TickEvent(1.0, h)
    primary = Event(1.0, h)
    q.push(secondary)
    q.push(primary)
    assert q.pop() is primary
    assert q.pop() is secondary


def test_insertion_order_breaks_ties():
    h = _Recorder()
    q = EventQueue()
    first = Event(1.0, h)
    second = Event(1.0, h)
    q.push(first)
    q.push(second)
    assert q.pop() is first
    assert q.pop() is second


def test_next_time():
    h = _Recorder()
    q = EventQueue()
    assert q.next_time() is None
    e = Event(3.5, h)
    q.push(e)
    assert q.next_time() == 3.5
    assert len(q) == 1
    assert q.pop() is e


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_clear():
    h = _Recorder()
    q = EventQueue()
    q.push(Event(1.0, h))
    q.clear()
    assert len(q) == 0


@given(st.lists(st.floats(min_value=0, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_queue_pops_in_nondecreasing_time_order(times):
    h = _Recorder()
    q = EventQueue()
    for t in times:
        q.push(Event(t, h))
    popped = [q.pop().time for _ in range(len(times))]
    assert popped == sorted(popped)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=10,
                                    allow_nan=False),
                          st.booleans()),
                min_size=1, max_size=100))
def test_queue_total_order_is_time_then_class_then_insertion(specs):
    h = _Recorder()
    q = EventQueue()
    events = [Event(t, h, secondary=s) for t, s in specs]
    for e in events:
        q.push(e)
    popped = [q.pop() for _ in range(len(events))]
    pushed_as = {id(e): i for i, e in enumerate(events)}
    keys = [(e.time, e.secondary, pushed_as[id(e)]) for e in popped]
    assert keys == sorted(keys)


def test_threads_pushing_the_same_instant_never_tie(eager_thread_switches):
    """Four threads push same-time, same-class events while the main
    thread pops: a duplicated sequence number would make the heap
    compare two events and raise TypeError, a lost update would lose
    an event."""
    h = _Recorder()
    q = EventQueue()
    per_thread = 5000
    pushers = [threading.Thread(
        target=lambda: [q.push(Event(1.0, h)) for _ in range(per_thread)])
        for _ in range(4)]
    for t in pushers:
        t.start()
    popped = 0
    while any(t.is_alive() for t in pushers) or len(q):
        if q.next_time() is not None:
            q.pop()
            popped += 1
    for t in pushers:
        t.join(timeout=30)
        assert not t.is_alive()
    assert popped == 4 * per_thread


def test_sequence_pickles_as_a_plain_int():
    q = EventQueue()
    for tag in "abc":  # a string stands in for the handler: it pickles
        q.push(Event(1.0, tag))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # 3.12: itertools pickling warns
        state = q.__getstate__()
        restored = pickle.loads(pickle.dumps(q))
    assert type(state["_seq"]) is int
    # The restored queue numbers new entries after the frozen ones.
    restored.push(Event(1.0, "d"))
    assert [restored.pop().handler for _ in range(4)] == list("abcd")
