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
bucket line).  ``python -m tests.fleet.test_job_fixed_cost`` prints
the table.

The subtraction only means something while the job's simulation runs
on the thread that is counted (``count_calls`` profiles the calling
thread alone: ``run_guarded`` keeps the engine there).  A run moved
onto another thread would leave ``measured`` negative — far under any
budget — so the test first checks that the job counts more calls than
its bare run.
"""

import contextlib
import io

from repro.core import Monitor
from repro.core.server import RTMServer
from repro.fleet.queue import JobSpec
from repro.fleet.worker import WorkerSettings, _execute_job
from repro.gpu import GPUPlatform, GPUPlatformConfig
from tests.call_counter import count_calls

#: ``job_calls() - bare_run_calls()`` measured at PR 19 (the parent of
#: the change this file came with), same script, same spec.
PARENT_FIXED_CALLS = 21594

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


def test_a_jobs_fixed_cost_repeats_and_stays_a_quarter_under_pr19():
    with warm_server() as server:
        job, bare = job_calls(server), bare_run_calls()
        assert job > bare, (
            f"a job counted {job} calls, its bare run {bare}: the "
            "simulation no longer runs on the counted thread")
        measured = job - bare
        assert measured == job_calls(server) - bare_run_calls(), \
            "the count must repeat exactly"
    assert measured <= 0.75 * PARENT_FIXED_CALLS, (
        f"{measured} calls per job beyond its simulation, "
        f"{PARENT_FIXED_CALLS} at PR 19: a job is paying again for "
        "something nobody reads")


if __name__ == "__main__":
    with warm_server() as server:
        job, bare = job_calls(server), bare_run_calls()
    fixed = job - bare
    print("Per-job fixed cost, interpreter calls on the worker's main "
          "thread (FIR 256)")
    print(f"{'':28}{'calls':>10}")
    print(f"{'_execute_job':28}{job:>10}")
    print(f"{'bare platform.run()':28}{bare:>10}")
    print(f"{'fixed cost + recording':28}{fixed:>10}")
    print(f"{'at PR 19':28}{PARENT_FIXED_CALLS:>10}")
    print(f"{'change':28}{100.0 * (fixed / PARENT_FIXED_CALLS - 1):>9.1f}%")
