"""Tests for the hook system and its engine integration."""

import pickle
import sys
import threading

from repro.akita import (
    CallbackEvent,
    Component,
    DirectConnection,
    Engine,
    HookCtx,
    HookPos,
    Hookable,
    Msg,
    TaskInfo,
)
from repro.akita.connection import DeliveryEvent, Transfer


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
# The convention belongs to the position: ports and components call
# hook(subject, now, item); engines and connections call hook(ctx)
# ----------------------------------------------------------------------
COMPONENT_POSITIONS = (HookPos.PORT_SEND, HookPos.PORT_DELIVER,
                       HookPos.PORT_RETRIEVE, HookPos.TASK_BEGIN,
                       HookPos.TASK_END)


class _Node(Component):
    def __init__(self, name, engine):
        super().__init__(name, engine)
        self.io = self.add_port("IO", 2)

    def notify_recv(self, port):
        port.retrieve_incoming()


class _Rig:
    """Two components over one connection; :meth:`exercise` drives
    every component position through its real firing site."""

    def __init__(self):
        self.engine = Engine()
        self.a = _Node("A", self.engine)
        self.b = _Node("B", self.engine)
        self.link = DirectConnection("Link", self.engine, latency=2e-9)
        self.link.plug_in(self.a.io)
        self.link.plug_in(self.b.io)
        self.msg = Msg(self.b.io)

    def exercise(self):
        assert self.a.io.send(self.msg)
        self.engine.run()
        self.b.task_begin(7, "wg", "WG 7")
        self.b.task_end(7, "wg", "WG 7")


def _watch(seen, component, positions):
    """One hook per position (a positional hook is not told where it
    is), each noting ``(pos, *what it was called with)``."""
    for pos in positions:
        component.accept_hook(
            lambda *args, pos=pos: seen.append((pos, *args)), (pos,))


def test_component_positions_deliver_subject_now_item():
    rig, seen = _Rig(), []
    _watch(seen, rig.a, COMPONENT_POSITIONS)
    _watch(seen, rig.b, COMPONENT_POSITIONS)
    rig.exercise()
    task = TaskInfo(7, "wg", "WG 7")
    assert seen == [
        (HookPos.PORT_SEND, rig.a.io, 0.0, rig.msg),
        (HookPos.PORT_DELIVER, rig.b.io, 2e-9, rig.msg),
        (HookPos.PORT_RETRIEVE, rig.b.io, 2e-9, rig.msg),
        (HookPos.TASK_BEGIN, rig.b, 2e-9, task),
        (HookPos.TASK_END, rig.b, 2e-9, task),
    ]


def test_engine_and_connection_positions_still_deliver_a_ctx():
    rig, seen = _Rig(), []

    def note(ctx):
        assert type(ctx) is HookCtx
        seen.append((ctx.pos, ctx.domain, ctx.now, type(ctx.item)))

    def skip_deliveries(ctx):
        note(ctx)
        ctx.skip = ctx.item.handler is rig.link

    rig.engine.accept_hook(skip_deliveries, (HookPos.BEFORE_EVENT,))
    rig.engine.accept_hook(note, (HookPos.AFTER_EVENT,))
    rig.link.accept_hook(note)
    deliveries = []
    _watch(deliveries, rig.b, (HookPos.PORT_DELIVER,))
    rig.exercise()
    assert seen == [
        (HookPos.CONN_TRANSFER, rig.link, 0.0, Transfer),
        (HookPos.BEFORE_EVENT, rig.engine, 2e-9, DeliveryEvent),
    ]
    # The skipped event was discarded unhandled: nothing was delivered
    # and AFTER_EVENT never fired for it.
    assert not deliveries and rig.engine.event_count == 0


def test_narrowed_hook_is_never_called_elsewhere():
    rig, seen = _Rig(), []
    _watch(seen, rig.b, (HookPos.PORT_DELIVER, HookPos.TASK_END))
    rig.exercise()
    assert [pos for pos, *_ in seen] \
        == [HookPos.PORT_DELIVER, HookPos.TASK_END]


def test_positions_none_sees_every_position():
    """...that its hookable fires, each in that position's convention."""
    rig, seen = _Rig(), []
    rig.b.accept_hook(lambda *args: seen.append(args))
    rig.link.accept_hook(lambda ctx: seen.append(ctx.pos))
    rig.exercise()
    task = TaskInfo(7, "wg", "WG 7")
    assert seen == [
        HookPos.CONN_TRANSFER,
        (rig.b.io, 2e-9, rig.msg),   # deliver
        (rig.b.io, 2e-9, rig.msg),   # retrieve
        (rig.b, 2e-9, task),
        (rig.b, 2e-9, task),
    ]


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


def _edit_subscriptions_mid_firing(h, pos, fire):
    calls = []

    def late(*args):
        calls.append("late")

    def first(*args):
        calls.append("first")
        h.remove_hook(first)
        h.accept_hook(late, positions=(pos,))

    def second(*args):
        calls.append("second")

    h.accept_hook(first)
    h.accept_hook(second, positions=(pos,))
    # The firing in progress finishes on the chain it started with...
    fire()
    assert calls == ["first", "second"]
    # ...and the next one sees the edited subscriptions, in attach order.
    fire()
    assert calls == ["first", "second", "second", "late"]
    assert h.num_hooks == 2


def test_attach_and_detach_from_inside_a_firing_hook():
    h = Hookable()
    ctx = HookCtx(h, 0.0, HookPos.AFTER_EVENT)
    _edit_subscriptions_mid_firing(h, HookPos.AFTER_EVENT,
                                   lambda: h.invoke_hooks(ctx))
    rig = _Rig()
    _edit_subscriptions_mid_firing(rig.b, HookPos.PORT_DELIVER,
                                   lambda: rig.b.io.deliver(rig.msg))


def test_attach_detach_from_other_threads_keeps_chains_consistent():
    """Server threads start and stop observers while the simulation
    thread fires: no subscription may be lost or left behind, and no
    hook is entered at a position it did not ask for."""
    rig = _Rig()
    port, node = rig.b.io, rig.b
    keeper_calls = []
    _watch(keeper_calls, node, (HookPos.PORT_DELIVER,))
    stop = threading.Event()
    errors = []
    # What each position, and no other, hands its hooks: the message is
    # in the buffer at deliver and out of it at retrieve.
    expected = {
        HookPos.PORT_DELIVER:
            lambda subject, item: subject is port and len(port.buf) == 1,
        HookPos.PORT_RETRIEVE:
            lambda subject, item: subject is port and len(port.buf) == 0,
        HookPos.TASK_BEGIN:
            lambda subject, item: subject is node
            and type(item) is TaskInfo,
    }

    def churn(pos):
        def hook(subject, now, item):
            if not expected[pos](subject, item):
                errors.append((pos, subject, item))
        for _ in range(300):
            node.accept_hook(hook, positions=(pos,))
            node.remove_hook(hook)

    def fire():
        while not stop.is_set():
            port.deliver(rig.msg)  # _Node retrieves it on the spot
            node.task_begin(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        firer = threading.Thread(target=fire)
        churners = [threading.Thread(target=churn, args=(pos,))
                    for pos in (*expected, HookPos.PORT_DELIVER)]
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
    assert node.num_hooks == 1
    assert [pos for pos in HookPos if node._chains[pos.index]] \
        == [HookPos.PORT_DELIVER]


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
