"""The fleet scheduler runs when something happened, and only then.

``FleetManager._loop`` used to wake every 50 ms to look at the job
queue, so a campaign submitted to an idle warm pool waited 7-50 ms for
the next tick before its first ``claim``.  Now it blocks on its event
queue: workers' channels feed it, and every queue transition that adds
dispatchable work (``submit``, a queued ``restore``, a requeueing
``fail``) — and ``stop()`` — posts one coalesced wake item.  These
tests hold that to counts (``scheduler_turns``, ``wakes_posted``), not
to clocks: a missed wake shows as a job that is never claimed.
"""

import time

import pytest

from repro.fleet import FleetManager, JobQueue, JobSpec

pytestmark = pytest.mark.slow


def _spec(job_id, samples=256, **kwargs):
    return JobSpec(job_id, "fir", params={"num_samples": samples},
                   **kwargs)


def _until(condition, what, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, f"timed out: {what}"
        time.sleep(0.001)


def _worker_states(manager):
    return [w["state"] for w in manager.status()["workers"]]


@pytest.fixture
def pool():
    """A booted, idle, settled pool: ``(queue, manager)``."""
    pools = []

    def boot(num_workers=2):
        queue = JobQueue()
        manager = FleetManager(queue, num_workers=num_workers)
        pools.append(manager)
        manager.start()
        assert manager.wait_ready(timeout=60.0)
        _until(lambda: _worker_states(manager) == ["idle"] * num_workers,
               "every worker idle")
        _until(manager._events.empty, "boot events handled")
        return queue, manager

    yield boot
    for manager in pools:
        manager.stop()


# ----------------------------------------------------------------------
# Coalescing, with no scheduler running: exact
# ----------------------------------------------------------------------
def test_a_burst_of_submits_posts_one_wake_item():
    queue = JobQueue()
    manager = FleetManager(queue, num_workers=1)   # never started
    queue.submit_all([_spec(f"j{i}") for i in range(16)])
    assert manager.wakes_posted == 1
    assert manager._events.qsize() == 1
    # Read, the next transition posts again — once.
    manager._drain_events()
    running = queue.claim("elsewhere")
    assert manager.wakes_posted == 1            # a claim adds no work
    queue.fail(running.spec.job_id, "boom")     # requeued: it does
    queue.restore(_spec("r-queued"), attempt=1, failures=[{"error": "x"}])
    assert manager.wakes_posted == 2
    assert manager._events.qsize() == 1


def test_transitions_that_add_no_work_post_nothing():
    queue = JobQueue()
    manager = FleetManager(queue, num_workers=1)
    queue.restore(_spec("r-done"), state="completed")
    queue.restore(_spec("r-failed", max_retries=0), state="failed",
                  failures=[{"error": "x"}])
    assert manager.wakes_posted == 0
    queue.submit(_spec("a", max_retries=0))
    manager._drain_events()
    job = queue.claim("elsewhere")
    queue.fail(job.spec.job_id, "boom")         # budget spent: terminal
    queue.submit(_spec("b"))
    manager._drain_events()
    queue.complete(queue.claim("elsewhere").spec.job_id)
    assert manager.wakes_posted == 2            # the two submits
    assert manager._events.empty()


# ----------------------------------------------------------------------
# A live pool
# ----------------------------------------------------------------------
def test_an_idle_pool_takes_no_scheduler_turns(pool):
    _queue, manager = pool()
    turns = manager.scheduler_turns
    time.sleep(0.3)                 # six ticks of the timer that was
    assert manager.scheduler_turns == turns
    assert manager.wakes_posted == 1            # start()'s own


def test_a_submitted_campaign_is_claimed_in_a_bounded_number_of_turns(pool):
    queue, manager = pool(num_workers=2)
    turns, wakes = manager.scheduler_turns, manager.wakes_posted
    heard = []
    handle_event = manager._handle_event
    manager._handle_event = lambda handle, event: (
        heard.append(event["event"]), handle_event(handle, event))
    jobs = queue.submit_all([_spec(f"j{i}") for i in range(16)])
    _until(lambda: queue.done, "campaign drained")
    _until(lambda: heard.count("ready") == 16, "last ready handled")
    assert all(job.state == "completed" and len(job.workers) == 1
               for job in jobs)
    assert all(heard.count(kind) == 16 for kind in
               ("started", "final-metrics", "done", "ready"))
    # A turn handles at least one item, and the burst of 16 submits is
    # far fewer wake items than jobs.
    wakes = manager.wakes_posted - wakes
    assert 1 <= wakes < 16
    assert manager.scheduler_turns - turns <= wakes + len(heard)
    assert manager.wait(timeout=10.0)


def test_restoring_a_queued_job_leads_to_a_claim(pool):
    queue, manager = pool(num_workers=1)
    queue.restore(_spec("r-done"), state="completed")
    turns = manager.scheduler_turns
    job = queue.restore(_spec("resumed"), attempt=1, workers=["w-old"],
                        failures=[{"attempt": 0, "error": "manager died"}])
    _until(lambda: job.state == "completed", "restored job completed")
    assert job.workers == ["w-old", "w1"]
    assert manager.scheduler_turns > turns


def test_a_requeueing_fail_leads_to_a_claim(pool):
    """The fail comes from outside the scheduler thread (as ``stop()``
    and an exhausted pool's sweep do), while the pool is idle: only the
    wake can get the retry claimed."""
    queue, manager = pool(num_workers=1)
    first = queue.submit(_spec("first", samples=4096))
    _until(lambda: first.state == "running", "first job claimed")
    queue.submit(_spec("second", max_retries=1))
    second = queue.claim("elsewhere")       # the only worker is busy
    assert second is not None and second.spec.job_id == "second"
    _until(lambda: first.state == "completed"
           and _worker_states(manager) == ["idle"], "pool idle again")
    assert second.state == "running"
    wakes = manager.wakes_posted
    queue.fail("second", "lost elsewhere")
    assert manager.wakes_posted == wakes + 1
    _until(lambda: second.state == "completed", "retry completed")
    assert second.workers == ["elsewhere", "w1"] and second.attempt == 1


def test_stopping_an_idle_pool_is_one_wake_and_one_turn(pool):
    _queue, manager = pool(num_workers=1)
    scheduler = manager._thread
    turns, wakes = manager.scheduler_turns, manager.wakes_posted
    manager.stop()
    assert not scheduler.is_alive()
    assert manager.wakes_posted == wakes + 1
    assert manager.scheduler_turns == turns + 1
    assert _worker_states(manager) == ["exited"]
