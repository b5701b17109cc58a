"""Tests for components and the tick/sleep/wake discipline."""

import pytest
from hypothesis import given, strategies as st

from repro.akita import (
    Component,
    ConfigurationError,
    DirectConnection,
    Engine,
    GHZ,
    HookPos,
    MHZ,
    Msg,
    TickEvent,
    TickingComponent,
    next_tick,
)


class _Counter(TickingComponent):
    """Ticks `budget` times then sleeps."""

    def __init__(self, name, engine, budget, freq=GHZ):
        super().__init__(name, engine, freq)
        self.budget = budget
        self.work_done = 0

    def tick(self):
        if self.work_done >= self.budget:
            return False
        self.work_done += 1
        return True


def test_invalid_component_name_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        Component("bad name!", engine)
    with pytest.raises(ValueError):
        Component("", engine)


def test_indexed_names_accepted():
    engine = Engine()
    c = Component("GPU[1].SA[3].L1VCache[0]", engine)
    assert c.name == "GPU[1].SA[3].L1VCache[0]"


def test_duplicate_port_name_rejected():
    engine = Engine()
    c = Component("C", engine)
    c.add_port("In")
    with pytest.raises(ValueError):
        c.add_port("In")


def test_port_lookup():
    engine = Engine()
    c = Component("C", engine)
    p = c.add_port("Top", 8)
    assert c.port("Top") is p
    assert c.ports == [p]
    assert p.buf.capacity == 8


def test_ticking_component_ticks_until_no_progress():
    engine = Engine()
    c = _Counter("C", engine, budget=5)
    c.tick_later()
    engine.run()
    assert c.work_done == 5
    # Budget ticks + one final no-progress tick that put it to sleep.
    assert c.tick_count == 6
    assert c.asleep


def test_ticks_land_on_cycle_boundaries():
    engine = Engine()
    c = _Counter("C", engine, budget=3, freq=1e9)
    c.tick_later()
    engine.run()
    assert engine.now == pytest.approx(4e-9)


def test_a_progressing_tick_re_pushes_the_event_it_was_handed():
    """One TickEvent serves a run of progressing ticks: an AFTER_EVENT
    hook finds it already moved to the next cycle and reads the time it
    fired from ``ctx.now``; the final, idle tick is not re-pushed."""
    engine = Engine()
    c = _Counter("C", engine, budget=3)
    seen = []
    engine.accept_hook(
        lambda ctx: seen.append((ctx.now, ctx.item.time, ctx.item)),
        positions=(HookPos.AFTER_EVENT,))
    c.tick_later()
    engine.run()
    assert len({id(event) for _, _, event in seen}) == 1
    assert [(now, at) for now, at, _ in seen] == pytest.approx(
        [(1e-9, 2e-9), (2e-9, 3e-9), (3e-9, 4e-9), (4e-9, 4e-9)])
    assert engine.event_count == 4 and c.asleep


def test_tick_later_is_idempotent():
    engine = Engine()
    c = _Counter("C", engine, budget=1)
    c.tick_later()
    c.tick_later()
    c.tick_later()
    engine.run()
    assert c.work_done == 1
    assert c.tick_count == 2  # one productive + one sleep tick, no dups


def test_duplicate_tick_event_same_cycle_is_ignored():
    engine = Engine()
    c = _Counter("C", engine, budget=10)
    engine.schedule(TickEvent(1e-9, c))
    engine.schedule(TickEvent(1e-9, c))
    engine.run_until(1e-9)
    assert c.work_done == 1


def test_sleeping_component_wakes_on_message():
    engine = Engine()

    class Receiver(TickingComponent):
        def __init__(self, name, engine):
            super().__init__(name, engine)
            self.inp = self.add_port("In", 4)
            self.received = 0

        def tick(self):
            if self.inp.retrieve_incoming() is not None:
                self.received += 1
                return True
            return False

    class Sender(Component):
        def __init__(self, name, engine):
            super().__init__(name, engine)
            self.out = self.add_port("Out", 4)

        def handle(self, event):
            pass

    recv = Receiver("R", engine)
    send = Sender("S", engine)
    conn = DirectConnection("Conn", engine)
    conn.plug_in(send.out)
    conn.plug_in(recv.inp)

    recv.tick_later()
    engine.run()
    assert recv.asleep  # nothing to do: sleeping

    assert send.out.send(Msg(dst=recv.inp))
    engine.run()  # delivery wakes the receiver
    assert recv.received == 1


def test_lower_frequency_means_longer_cycles():
    engine = Engine()
    slow = _Counter("Slow", engine, budget=2, freq=0.5e9)  # 2 ns period
    slow.tick_later()
    engine.run()
    assert engine.now == pytest.approx(6e-9)  # 3 ticks at 2ns, start at 2ns


@pytest.mark.parametrize("freq", [0, -1e9, float("nan")])
def test_non_positive_frequency_is_a_construction_error(freq):
    with pytest.raises(ConfigurationError, match="freq"):
        _Counter("C", Engine(), budget=1, freq=freq)


@given(st.floats(min_value=0.0, max_value=1.0),
       st.sampled_from([GHZ, 0.5e9, 1.4e9, 2e9, MHZ]))
def test_a_tick_pushed_in_place_lands_on_the_next_cycle_boundary(now, freq):
    """``handle`` and ``tick_later`` compute the boundary themselves and
    push without ``Engine.schedule``'s past-check: what they compute
    must be ``ticker.next_tick`` and must lie after *now*."""
    expected = next_tick(now, freq)
    assert expected > now

    engine = Engine()
    woken = _Counter("Woken", engine, budget=1, freq=freq)
    engine.run_until(now)
    woken.tick_later()
    assert engine.next_event_time == woken._next_scheduled == expected

    engine = Engine()
    ticking = _Counter("Ticking", engine, budget=2, freq=freq)
    engine.schedule(TickEvent(now, ticking))
    engine.run_until(now)  # one progressing tick, rescheduled by handle
    assert ticking.work_done == 1
    assert engine.next_event_time == ticking._next_scheduled == expected
