"""End-to-end fleet campaigns with real worker subprocesses.

Two live campaigns back the PR's acceptance criteria:

* ``fleet4``: a warm 4-worker pool drains a 6-job workload x
  chiplet-count sweep in which one job's first attempt is sabotaged
  with an injected stall fault (``repro.faults`` via the worker's
  injector).  The watchdog aborts the stalled *run*, the worker
  survives (a warm worker outlives its jobs' failures), the restart
  policy retries the job, and the sweep completes.  One federated
  ``/metrics`` scrape taken *after* the campaign must still carry every
  completed job's ``(worker, job)`` labels.
* ``test_killed_worker_is_recycled...``: a worker is SIGKILLed mid-job
  — the process-death path, as opposed to the run-failure path above.
  The manager must requeue the job with a post-mortem, spawn a
  replacement worker within the restart budget, and still drain.
"""

import json
import os
import signal
import time

import pytest

from repro.core import RTMClient
from repro.fleet import FleetGateway, FleetManager, JobQueue, JobSpec

#: The canonical induced crash: a stall fault pins a write buffer so the
#: simulation stops making progress; the fleet-tuned watchdog confirms
#: the hang and aborts within a couple of seconds.
_STALL_FAULT = {"kind": "stall", "target": "*WriteBuffer*",
                "start": 5e-7}

pytestmark = pytest.mark.slow


def _run_campaign(specs, num_workers, timeout=300.0, **manager_kwargs):
    queue = JobQueue()
    queue.submit_all(specs)
    manager = FleetManager(queue, num_workers=num_workers,
                           **manager_kwargs)
    gateway = FleetGateway(manager)
    gateway.start()
    manager.start()
    try:
        assert manager.wait(timeout=timeout), \
            f"campaign did not drain: {json.dumps(manager.status())}"
        client = RTMClient(gateway.url)
        http_status = client.fleet_status()
        assert http_status["gateway_url"] == gateway.url
        assert http_status["summary"] == queue.counts()
        metrics = client.metrics_text()
    finally:
        manager.stop()
        gateway.stop()
    # Post-stop status: every worker has been shut down and reaped, so
    # the workers view is the pool's complete, settled history.
    return queue, manager.status(), metrics


@pytest.fixture(scope="module")
def fleet4():
    specs = [JobSpec(f"{workload}-c{chiplets}", workload,
                     chiplets=chiplets, max_retries=1)
             for workload in ("fir", "kmeans")
             for chiplets in (1, 2, 3)]
    assert len(specs) >= 6
    specs[0].fault = dict(_STALL_FAULT)  # sabotage fir-c1's attempt 0
    return _run_campaign(specs, num_workers=4)


def test_sweep_drains_with_every_job_completed(fleet4):
    queue, status, _metrics = fleet4
    summary = status["summary"]
    assert summary["completed"] == 6
    assert summary["failed"] == 0
    assert summary["queued"] == 0 and summary["running"] == 0
    assert status["drained"]
    assert queue.done


def test_induced_stall_is_retried_and_survived(fleet4):
    queue, status, _metrics = fleet4
    crashed = queue.get("fir-c1")
    assert crashed.state == "completed"
    assert crashed.attempt == 1          # second attempt won
    assert len(crashed.workers) == 2     # two claims spent
    assert status["summary"]["retries"] == 1

    (failure,) = crashed.failures
    post_mortem = failure["post_mortem"]
    # The stall aborted the *run*, not the worker: a warm worker
    # survives its job's failure and keeps serving.
    assert post_mortem["worker_alive"] is True
    assert post_mortem["exit_code"] is None
    # The watchdog's verdict rode the control channel into the
    # post-mortem: the hang was confirmed and aborted, not guessed at.
    assert post_mortem["watchdog"] is not None
    assert post_mortem["watchdog"]["verdict"] == "aborted"
    assert post_mortem["watchdog"]["stuck_buffers"]
    assert post_mortem["fault_stats"]


def test_unsabotaged_jobs_complete_first_try(fleet4):
    queue, _status, _metrics = fleet4
    for job in queue.jobs():
        if job.spec.job_id == "fir-c1":
            continue
        assert job.attempt == 0
        assert job.failures == []
        assert job.result["run_state"] == "completed"


def test_federated_scrape_carries_every_job(fleet4):
    queue, _status, metrics = fleet4
    # One post-campaign scrape must carry every job's final series,
    # each labelled with the job id and the worker that completed it —
    # under a warm pool one worker completes many jobs, so the worker
    # label alone no longer identifies a run.
    for job in queue.jobs():
        job_id = job.spec.job_id
        worker_id = job.result["worker_id"]
        assert f'worker="{worker_id}",job="{job_id}"' in metrics, job_id
    # Labelled simulation families and un-labelled fleet families
    # coexist in the same document.
    assert "rtm_engine_events_total{worker=" in metrics
    assert 'rtm_fleet_jobs{state="completed"} 6' in metrics
    assert "rtm_fleet_job_retries_total 1" in metrics
    # No worker crashed, so no recycle happened.
    assert "rtm_fleet_worker_restarts_total 0" in metrics


def test_warm_pool_spans_jobs_instead_of_spawning_per_attempt(fleet4):
    _queue, status, _metrics = fleet4
    workers = status["workers"]
    # 7 attempts were dispatched, but only 4 processes ever existed.
    assert len(workers) == 4
    assert all(w["state"] == "exited" for w in workers)
    assert all(w["exit_code"] == 0 for w in workers)
    assert sum(w["jobs_done"] for w in workers) == 6
    assert status["worker_restarts"] == 0


def test_killed_worker_is_recycled_and_its_job_retried():
    """SIGKILL a worker mid-job: the process-death path.  The job must
    requeue with an exit -9 post-mortem, a replacement worker must
    appear within the restart budget, and the campaign must drain."""
    queue = JobQueue()
    queue.submit_all([JobSpec(f"fir-k{i}", "fir",
                              params={"num_samples": 8192},
                              max_retries=1)
                      for i in range(6)])
    manager = FleetManager(queue, num_workers=4)
    gateway = FleetGateway(manager)
    gateway.start()
    manager.start()
    try:
        assert manager.wait_ready(timeout=60)
        victim = None
        deadline = time.monotonic() + 60
        while victim is None and time.monotonic() < deadline:
            targets = manager.scrape_targets()
            if targets:
                victim = targets[0]
            else:
                time.sleep(0.01)
        assert victim is not None, "no job ever started"
        pid = next(w["pid"] for w in manager.status()["workers"]
                   if w["worker_id"] == victim["worker_id"])
        os.kill(pid, signal.SIGKILL)

        assert manager.wait(timeout=240), json.dumps(manager.status())
        metrics = RTMClient(gateway.url).metrics_text()
    finally:
        manager.stop()
        gateway.stop()

    status = manager.status()
    assert status["summary"]["completed"] == 6
    assert status["summary"]["failed"] == 0
    assert status["worker_restarts"] == 1
    assert "rtm_fleet_worker_restarts_total 1" in metrics

    job = queue.get(victim["job_id"])
    assert job.state == "completed"
    (failure,) = job.failures
    assert failure["post_mortem"]["exit_code"] == -signal.SIGKILL
    assert "exited -9 mid-job" in failure["error"]

    workers = {w["worker_id"]: w for w in status["workers"]}
    assert len(workers) == 5  # 4 original + 1 replacement
    assert workers[victim["worker_id"]]["exit_code"] == -signal.SIGKILL
    # The victim's final exposition still federates: the job's retry
    # shipped one through the control channel.
    assert f'job="{victim["job_id"]}"' in metrics


def test_smoke2_two_workers_four_jobs_one_stall():
    specs = [JobSpec(f"fir-s{i}", "fir", chiplets=1, max_retries=1)
             for i in range(4)]
    specs[1].fault = dict(_STALL_FAULT)
    queue, status, metrics = _run_campaign(specs, num_workers=2)

    assert status["summary"]["completed"] == 4
    assert status["summary"]["retries"] == 1
    assert queue.get("fir-s1").state == "completed"
    assert len(queue.get("fir-s1").workers) == 2

    for job in queue.jobs():
        assert (f'worker="{job.result["worker_id"]}"'
                f',job="{job.spec.job_id}"') in metrics, job.spec.job_id




def test_wait_ready_gives_up_when_the_pool_can_never_boot():
    """Both workers die on argparse's exit 2 and the empty queue
    respawns nothing: wait_ready must say so at once, not sleep out
    its timeout, and status must carry the reason."""
    manager = FleetManager(JobQueue(), num_workers=2,
                           worker_args=["--bogus"])
    manager.start()
    try:
        started = time.monotonic()
        assert manager.wait_ready(timeout=30.0) is False
        assert time.monotonic() - started < 2.0
        # wait_ready returns at the *first* lost slot, which may be
        # w2's: give w1's exit a moment to settle too.
        deadline = time.monotonic() + 10.0
        while True:
            w1 = next(w for w in manager.status()["workers"]
                      if w["worker_id"] == "w1")
            if w1["state"] == "exited":
                break
            assert time.monotonic() < deadline, w1
            time.sleep(0.01)
    finally:
        manager.stop()
    assert w1["exit_code"] == 2
    assert any("unrecognized arguments" in line
               for line in w1["stderr_tail"])
