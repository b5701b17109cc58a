"""What a fleet job costs beyond its simulation, as a count.

A short-job campaign (a fault campaign is hundreds of 30 ms runs) pays
the worker's per-job work — platform build, ``Monitor()``, watchdog,
sampler, instrumentation, the final exposition, teardown — once per
job.  Wall time on a shared runner moves by a factor of two between
minutes; the number of calls the interpreter makes does not move at
all.  This counts every call (Python functions and C builtins, what
``cProfile`` calls ``total_calls``) the worker's main thread makes in
``_execute_job`` of a 256-sample FIR, and takes away the calls of the
same platform's bare ``platform.run()``: what is left is the job's
fixed cost plus what recording adds per event.

History: 21,594 at PR 19; 11,325 (-47.6%) when buffers became
discovered at first read (``Monitor()`` no longer walks every
component for a table no job opens) and a label set rendered once
(``expose()`` no longer builds and escapes a dict per histogram
bucket line); 11,373 since; 8,240 (-27.5%) when buffer occupancy
became a count the port keeps (no metrics callback per delivered
message) and a job's registry was collected once, held to
:data:`FIXED_CALLS_BUDGET`.
``PYTHONPATH=src python -m tests.counts`` prints it as
``calls_per_job@fleet``.

Beside it, what a journaled job costs the disk: ``fsyncs_per_job``,
the ``os.fsync`` calls of a journaled 4-job campaign on two workers,
divided by 4 — one per critical ``complete`` record, and the close's.

The subtraction only means something while the job's simulation runs
on the thread that is counted (``count_calls`` profiles the calling
thread alone: ``run_guarded`` keeps the engine there).  A run moved
onto another thread would leave ``measured`` negative — far under any
budget — so the test first checks that the job counts more calls than
its bare run.
"""

import contextlib
import functools
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from repro.core import Monitor
from repro.core.server import RTMServer
from repro.fleet import CampaignJournal, FleetManager, JobQueue
from repro.fleet.queue import JobSpec
from repro.fleet.worker import WorkerSettings, _execute_job
from repro.gpu import GPUPlatform, GPUPlatformConfig
from tests.call_counter import count_calls

#: ``calls_per_job@fleet`` may not exceed this: 8,240 when it was set.
FIXED_CALLS_BUDGET = 8_320

SPEC = JobSpec("fixed-cost", "fir", params={"num_samples": 256})


def _count_calls(fn):
    """Calls the current thread's interpreter makes inside ``fn()``."""
    frames, c_calls, result = count_calls(fn)
    return frames + c_calls, result


@contextlib.contextmanager
def warm_server():
    """What a worker keeps across jobs (and the first job's lazy
    imports and caches, paid here)."""
    server = RTMServer(Monitor())
    server.start()
    try:
        job_calls(server)
        yield server
    finally:
        server.stop()


def job_calls(server):
    """One whole job, as the warm worker runs it (events swallowed)."""
    with contextlib.redirect_stdout(io.StringIO()):
        calls, ok = _count_calls(
            lambda: _execute_job(SPEC, 0, server, WorkerSettings()))
    assert ok
    return calls


def bare_run_calls():
    """The simulation a job is: the same platform, nothing attached."""
    platform = GPUPlatform(GPUPlatformConfig.small(
        num_chiplets=SPEC.chiplets))
    SPEC.build_workload().enqueue(platform.driver)
    calls, completed = _count_calls(platform.run)
    assert completed
    return calls


def fixed_calls(server):
    """A job's calls beyond its bare run, on the warm *server*."""
    job, bare = job_calls(server), bare_run_calls()
    assert job > bare, (
        f"a job counted {job} calls, its bare run {bare}: the "
        "simulation no longer runs on the counted thread")
    return job - bare


def campaign_fsyncs(jobs=4):
    """``os.fsync`` calls of one journaled *jobs*-job FIR campaign on
    two workers, from submission to the journal's close."""
    synced = []
    real = os.fsync
    with tempfile.TemporaryDirectory() as tmp:
        queue = JobQueue()
        journal = CampaignJournal(str(Path(tmp) / "campaign.wal"))
        manager = FleetManager(queue, num_workers=2, journal=journal)
        manager.start()
        with mock.patch("os.fsync",
                        lambda fd: synced.append(fd) or real(fd)):
            try:
                assert manager.wait_ready(timeout=60)
                queue.submit_all([
                    JobSpec(f"fir-{i}", "fir", params={"num_samples": 256})
                    for i in range(jobs)])
                assert manager.wait(timeout=120)
            finally:
                manager.stop()
                journal.close()
        assert queue.counts()["completed"] == jobs, queue.counts()
    return len(synced)


@functools.cache
def measure():
    """``calls_per_job@fleet`` and ``fsyncs_per_job``."""
    with warm_server() as server:
        calls = fixed_calls(server)
    return {"calls_per_job@fleet": calls,
            "fsyncs_per_job": campaign_fsyncs() / 4}


def test_a_jobs_fixed_cost_repeats_and_stays_inside_its_budget():
    measured = measure()["calls_per_job@fleet"]
    with warm_server() as server:
        assert measured == fixed_calls(server), \
            "the count must repeat exactly"
    assert measured <= FIXED_CALLS_BUDGET, (
        f"{measured} calls per job beyond its simulation, budget "
        f"{FIXED_CALLS_BUDGET}: a job is paying again for something "
        "nobody reads")


def test_a_journaled_job_costs_one_fsync_and_a_quarter_of_the_close():
    assert measure()["fsyncs_per_job"] == (4 + 1) / 4
