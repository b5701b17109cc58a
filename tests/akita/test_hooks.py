"""Tests for the hook system and its engine integration."""

import pickle
import sys
import threading

from repro.akita import (
    CallbackEvent,
    Engine,
    HookCtx,
    HookPos,
    Hookable,
)


def test_hookable_attach_invoke_remove():
    h = Hookable()
    seen = []
    hook = seen.append
    h.accept_hook(hook)
    assert h.num_hooks == 1
    ctx = HookCtx(domain=h, now=1.0, pos=HookPos.BEFORE_EVENT, item="x")
    h.invoke_hooks(ctx)
    assert seen == [ctx]
    h.remove_hook(hook)
    h.invoke_hooks(ctx)
    assert len(seen) == 1


def test_multiple_hooks_all_fire_in_order():
    h = Hookable()
    order = []
    h.accept_hook(lambda ctx: order.append("first"))
    h.accept_hook(lambda ctx: order.append("second"))
    h.invoke_hooks(HookCtx(h, 0.0, HookPos.AFTER_EVENT))
    assert order == ["first", "second"]


def test_engine_hooks_see_events_and_lifecycle():
    engine = Engine()
    log = []
    engine.accept_hook(lambda ctx: log.append((ctx.pos, ctx.item)))
    engine.schedule(CallbackEvent(1.0, lambda e: None))
    engine.run()
    positions = [pos for pos, _ in log]
    assert positions[0] is HookPos.ENGINE_START
    assert HookPos.BEFORE_EVENT in positions
    assert HookPos.AFTER_EVENT in positions
    assert positions[-1] is HookPos.ENGINE_DRY
    events = [item for pos, item in log if pos is HookPos.BEFORE_EVENT]
    assert isinstance(events[0], CallbackEvent)


def test_pause_continue_hooks_fire():
    engine = Engine()
    positions = []
    engine.accept_hook(lambda ctx: positions.append(ctx.pos))
    engine.pause()
    engine.continue_()
    assert positions == [HookPos.ENGINE_PAUSE, HookPos.ENGINE_CONTINUE]


def test_hook_can_count_event_rate():
    """The pattern a monitoring tool uses: count events via a hook."""
    engine = Engine()
    counter = {"n": 0}

    def hook(ctx):
        if ctx.pos is HookPos.AFTER_EVENT:
            counter["n"] += 1

    engine.accept_hook(hook)
    for i in range(10):
        engine.schedule(CallbackEvent(float(i + 1), lambda e: None))
    engine.run()
    assert counter["n"] == 10
    assert engine.event_count == 10


# ----------------------------------------------------------------------
# Per-position chains: a hook is entered only where it subscribed
# ----------------------------------------------------------------------
def _fire_everywhere(h):
    for pos in HookPos:
        h.invoke_hooks(HookCtx(h, 0.0, pos))
        h.fire_hooks(h, 0.0, pos)


def test_narrowed_hook_is_never_called_elsewhere():
    h = Hookable()
    seen = []
    h.accept_hook(lambda ctx: seen.append(ctx.pos),
                  positions=(HookPos.PORT_DELIVER, HookPos.TASK_END))
    _fire_everywhere(h)
    assert seen == [HookPos.PORT_DELIVER] * 2 + [HookPos.TASK_END] * 2


def test_positions_none_sees_every_position():
    h = Hookable()
    seen = []
    h.accept_hook(lambda ctx: seen.append(ctx.pos))
    for pos in HookPos:
        h.fire_hooks(h, 0.0, pos)
    assert seen == list(HookPos)


def test_unsubscribed_positions_have_empty_chains():
    """What firing sites test: the chain of their own position."""
    h = Hookable()
    assert not any(h._chains)
    h.accept_hook(lambda ctx: None, positions=(HookPos.CONN_DROP,))
    assert [pos for pos in HookPos if h._chains[pos.index]] \
        == [HookPos.CONN_DROP]


def test_engine_narrowed_hook_skips_the_event_positions():
    engine = Engine()
    seen = []
    engine.accept_hook(lambda ctx: seen.append(ctx.pos),
                       positions=(HookPos.ENGINE_START,
                                  HookPos.ENGINE_DRY))
    for i in range(5):
        engine.schedule(CallbackEvent(float(i + 1), lambda e: None))
    engine.run()
    assert seen == [HookPos.ENGINE_START, HookPos.ENGINE_DRY]


def test_attach_and_detach_from_inside_a_firing_hook():
    h = Hookable()
    calls = []

    def late(ctx):
        calls.append("late")

    def first(ctx):
        calls.append("first")
        h.remove_hook(first)
        h.accept_hook(late, positions=(HookPos.AFTER_EVENT,))

    def second(ctx):
        calls.append("second")

    h.accept_hook(first)
    h.accept_hook(second, positions=(HookPos.AFTER_EVENT,))
    ctx = HookCtx(h, 0.0, HookPos.AFTER_EVENT)
    # The firing in progress finishes on the chain it started with...
    h.invoke_hooks(ctx)
    assert calls == ["first", "second"]
    # ...and the next one sees the edited subscriptions, in attach order.
    h.invoke_hooks(ctx)
    assert calls == ["first", "second", "second", "late"]
    assert h.num_hooks == 2


def test_attach_detach_from_other_threads_keeps_chains_consistent():
    """Server threads start and stop observers while the simulation
    thread fires: no subscription may be lost or left behind."""
    h = Hookable()
    keeper_calls = []
    h.accept_hook(keeper_calls.append, positions=(HookPos.PORT_SEND,))
    stop = threading.Event()
    errors = []

    def churn(pos):
        def hook(ctx):
            if ctx.pos is not pos:
                errors.append((pos, ctx.pos))
        for _ in range(300):
            h.accept_hook(hook, positions=(pos,))
            h.remove_hook(hook)

    def fire():
        while not stop.is_set():
            for pos in (HookPos.PORT_SEND, HookPos.PORT_DELIVER,
                        HookPos.TASK_BEGIN):
                h.invoke_hooks(HookCtx(h, 0.0, pos))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        firer = threading.Thread(target=fire)
        churners = [threading.Thread(target=churn, args=(pos,))
                    for pos in (HookPos.PORT_SEND, HookPos.PORT_DELIVER,
                                HookPos.TASK_BEGIN, HookPos.PORT_SEND)]
        firer.start()
        for t in churners:
            t.start()
        for t in churners:
            t.join(timeout=60)
        stop.set()
        firer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not firer.is_alive() and not any(t.is_alive() for t in churners)
    assert not errors
    assert keeper_calls  # the bystander kept being called throughout
    assert h.num_hooks == 1
    assert [pos for pos in HookPos if h._chains[pos.index]] \
        == [HookPos.PORT_SEND]


def test_checkpoint_round_trip_restores_empty_chains():
    engine = Engine()
    engine.accept_hook(lambda ctx: None)  # unpicklable on purpose
    engine.schedule(CallbackEvent(1.0, _noop))
    restored = pickle.loads(pickle.dumps(engine))
    assert restored.num_hooks == 0
    assert not any(restored._chains)
    calls = []
    restored.accept_hook(lambda ctx: calls.append(ctx.pos),
                         positions=(HookPos.AFTER_EVENT,))
    restored.run()
    assert calls == [HookPos.AFTER_EVENT]


def _noop(event):
    pass
