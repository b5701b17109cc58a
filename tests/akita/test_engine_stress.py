"""Concurrency stress for the engine's external control surface."""

import threading
import time

import pytest

from repro.akita import CallbackEvent, Engine, RunState, TickingComponent


def _self_rescheduling_chain(engine, count, start=1.0):
    done = {"n": 0, "times": []}

    def cb(event):
        done["n"] += 1
        done["times"].append(engine.now)
        if done["n"] < count:
            engine.schedule(CallbackEvent(event.time + 1.0, cb))

    engine.schedule(CallbackEvent(start, cb))
    return done


def test_repeated_pause_continue_under_load():
    engine = Engine()
    done = _self_rescheduling_chain(engine, 50_000)
    thread = threading.Thread(target=engine.run)
    thread.start()
    for _ in range(50):
        engine.pause()
        engine.continue_()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert done["n"] == 50_000


@pytest.mark.parametrize("while_", ["paused", "running"])
def test_concurrent_scheduling_from_other_threads(while_,
                                                  eager_thread_switches):
    engine = Engine()
    hits = []

    def cb(event):
        hits.append(event.time)

    if while_ == "paused":
        # Externally scheduled events pile up, then run.
        engine.pause()
    else:
        # The loop pops its own far-future chain while they arrive.
        chain = _self_rescheduling_chain(engine, 100_000, start=1e6)
    thread = threading.Thread(target=engine.run)
    thread.start()

    def scheduler(base):
        for i in range(200):
            engine.schedule(CallbackEvent(base + i, cb))

    workers = [threading.Thread(target=scheduler, args=(k * 1000.0 + 1e7,))
               for k in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
        assert not w.is_alive()
    engine.continue_()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert len(hits) == 800
    assert hits == sorted(hits)  # causal order preserved
    if while_ == "running":
        assert chain["n"] == 100_000


class _Sleeper(TickingComponent):
    """Never makes progress: every wake-up is exactly one tick."""

    def tick(self):
        return False


@pytest.mark.parametrize("while_", ["paused", "running"])
def test_tick_later_from_other_threads_lands(while_, eager_thread_switches):
    """The Tick button's path.  ``tick_later()`` pushes its event onto
    the heap itself, against a clock the loop may have moved since: the
    tick must still arrive (late ones at the current time), or the
    component believes forever in a tick that never comes."""
    engine = Engine()
    sleepers = [_Sleeper(f"S{k}", engine) for k in range(4)]
    if while_ == "paused":
        engine.pause()
    else:
        chain = _self_rescheduling_chain(engine, 100_000)
    thread = threading.Thread(target=engine.run)
    thread.start()

    def poke(sleeper):
        for _ in range(200):
            sleeper.tick_later()

    workers = [threading.Thread(target=poke, args=(s,)) for s in sleepers]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=60)
        assert not w.is_alive()
    engine.continue_()
    thread.join(timeout=60)
    assert not thread.is_alive()
    engine.run()  # what was pushed after the loop's last look
    assert all(s.asleep and s.tick_count >= 1 for s in sleepers)
    assert engine.pending_event_count == 0
    if while_ == "paused":
        # 200 pokes at one clock reading are one tick.
        assert [s.tick_count for s in sleepers] == [1] * 4
    else:
        assert chain["n"] == 100_000
        assert chain["times"] == sorted(chain["times"])


def test_scheduling_at_now_from_another_thread_never_rewinds_the_clock(
        eager_thread_switches):
    """A server thread reads ``engine.now`` and schedules there while
    the loop advances.  Its event may arrive in the loop's past: it
    must neither be refused (the Tick button answering HTTP 500) nor
    pull virtual time backwards when popped."""
    engine = Engine()
    chain = _self_rescheduling_chain(engine, 200_000)
    observed = []  # engine.now as each foreign event is handled
    failures = []
    scheduled = 0

    def foreign(event):
        observed.append(engine.now)
        assert event.time == engine.now

    def hammer():
        nonlocal scheduled
        try:
            while chain["n"] < 200_000 and sim.is_alive():
                # Keep the backlog short (the loop must get to run dry)
                # with the two accessors a dashboard polls.
                if engine.pending_event_count < 64 \
                        and engine.next_event_time is not None:
                    engine.schedule(CallbackEvent(engine.now, foreign))
                    scheduled += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    def run():
        try:
            engine.run()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)

    sim = threading.Thread(target=run, daemon=True)
    server = threading.Thread(target=hammer, daemon=True)
    sim.start()
    server.start()
    sim.join(timeout=120)
    server.join(timeout=120)
    assert not sim.is_alive() and not server.is_alive()
    assert failures == []
    assert chain["n"] == 200_000
    # What the hammer slipped in after the loop's last look stays
    # queued for the next run(): nothing is lost.
    engine.run()
    assert scheduled > 0 and len(observed) == scheduled
    assert observed == sorted(observed)
    assert chain["times"] == sorted(chain["times"])


def test_terminate_while_paused_releases_thread():
    engine = Engine()
    _self_rescheduling_chain(engine, 1_000_000)
    engine.pause()
    thread = threading.Thread(target=engine.run)
    thread.start()
    time.sleep(0.05)
    engine.terminate()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert engine.run_state == RunState.ENDED


def test_pause_latency_is_bounded_under_load():
    """Pausing takes effect within a handful of events, not seconds."""
    engine = Engine()
    done = _self_rescheduling_chain(engine, 2_000_000)
    thread = threading.Thread(target=engine.run)
    thread.start()
    time.sleep(0.05)
    engine.pause()
    time.sleep(0.01)
    count_a = engine.event_count
    time.sleep(0.1)
    count_b = engine.event_count
    assert count_b == count_a  # fully parked
    engine.terminate()
    thread.join(timeout=10)
