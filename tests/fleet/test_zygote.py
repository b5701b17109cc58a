"""One zygote per pool: what forking workers must not leak, hang on or
change.

Every fleet worker and every shard is a fork of its pool's zygote
(:class:`~repro.fleet.channel.Zygote`).  After ``FleetManager.stop()``
or ``ShardCoordinator.close()`` the zygote has exited and been waited
for, nothing is left for ``waitpid`` to find, and the owner holds the
file descriptors it held before the boot — with or without a worker
killed on the way.  A zygote that dies takes the pool's ability to
start workers with it, never the run: a restart fails by the zygote's
name, ``wait_ready()`` says ``False``, a shard's error names it, and
nothing hangs.  A forked worker computes what an in-process run does.
"""

import contextlib
import io
import os
import queue
import signal
import threading
import time

import pytest

from repro.core import Monitor
from repro.core.server import RTMServer
from repro.fleet import FleetManager, JobQueue, JobSpec
from repro.fleet.channel import WorkerChannel, Zygote
from repro.fleet.protocol import FrameDecoder
from repro.fleet.worker import WorkerSettings, _execute_job
from repro.gpu.platform import GPUPlatformConfig
from repro.shard import ShardCoordinator, ShardWorkerError
from repro.shard import coordinator as coordinator_module
from repro.workloads import StoreStorm

pytestmark = pytest.mark.slow


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _assert_nothing_left(zygote, fds_before):
    assert zygote.process.returncode is not None, "zygote not waited for"
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0), "a zombie child"
    except ChildProcessError:
        pass  # no child at all
    assert _open_fds() == fds_before


def _wait_for(predicate, what, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.01)


def _storm_coordinator(**params):
    return ShardCoordinator(GPUPlatformConfig.small(num_chiplets=2),
                            StoreStorm(**params), 2)


# ----------------------------------------------------------------------
# Nothing leaks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kill", [False, True], ids=["clean", "sigkill"])
def test_a_stopped_fleet_leaves_no_process_and_no_fd(kill):
    before = _open_fds()
    manager = FleetManager(JobQueue(), num_workers=2)
    manager.start()
    zygote = manager._zygote
    try:
        assert manager.wait_ready(timeout=60)
        if kill:
            victim = manager.status()["workers"][0]
            os.kill(victim["pid"], signal.SIGKILL)
            _wait_for(lambda: any(w["exit_code"] == -signal.SIGKILL
                                  for w in manager.status()["workers"]),
                      "the killed worker was never reaped")
    finally:
        manager.stop()
    _assert_nothing_left(zygote, before)


@pytest.mark.parametrize("kill", [False, True], ids=["clean", "sigkill"])
def test_a_closed_sharded_run_leaves_no_process_and_no_fd(kill):
    before = _open_fds()
    coordinator = _storm_coordinator(num_workgroups=8,
                                     stores_per_wavefront=4)
    if kill:
        coordinator._spawn()
        coordinator._channels[1].process.kill()
        assert coordinator._channels[1].process.wait(10.0) == \
            -signal.SIGKILL
    else:
        assert coordinator.run().completed
    coordinator.close()
    _assert_nothing_left(coordinator._zygote, before)


# ----------------------------------------------------------------------
# The zygote dies
# ----------------------------------------------------------------------
def test_a_zygote_that_cannot_start_is_named_in_the_channel():
    zygote = Zygote("repro.fleet.nonesuch")
    sink = queue.Queue()
    channel = WorkerChannel(zygote, [], sink, "w1")
    try:
        assert sink.get(timeout=30.0)[2] is None  # EOF, at once
        assert channel.send({"cmd": "shutdown"}) is False
        assert channel.reap(1.0) is None
    finally:
        zygote.close()
    assert channel.process.pid is None
    (line,) = channel.stderr_tail
    assert line.startswith("zygote of repro.fleet.nonesuch (pid ")
    assert "exited 1" in line
    assert "No module named 'repro.fleet.nonesuch'" in line


def test_a_dead_zygote_fails_the_restart_by_name_and_never_hangs():
    """Workers already running carry the campaign; the restart that
    replaces a killed one is a counted failure naming the zygote."""
    queue_ = JobQueue()
    queue_.submit_all([JobSpec(f"fir-z{i}", "fir",
                               params={"num_samples": 2048},
                               max_retries=2) for i in range(6)])
    manager = FleetManager(queue_, num_workers=2)
    manager.max_worker_restarts = 1
    manager.start()
    try:
        assert manager.wait_ready(timeout=60)
        zygote = manager._zygote
        os.kill(zygote.process.pid, signal.SIGKILL)
        _wait_for(lambda: zygote.death, "the zygote's death went unseen")
        victim = manager.status()["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)
        assert manager.wait(timeout=120), manager.status()["summary"]
        started = time.monotonic()
        assert manager.wait_ready(timeout=30.0) is False
        assert time.monotonic() - started < 2.0
    finally:
        started = time.monotonic()
        manager.stop()
        assert time.monotonic() - started < 15.0
    status = manager.status()
    assert status["summary"]["completed"] == 6
    assert status["worker_restarts"] == 1
    unborn = next(w for w in status["workers"] if w["worker_id"] == "w3")
    assert unborn["exit_code"] is None
    assert unborn["stderr_tail"] == [
        f"zygote of repro.fleet.worker (pid {zygote.process.pid}) "
        "exited -9"]
    # The worker it could no longer watch says so in its post-mortem.
    killed = next(w for w in status["workers"]
                  if w["worker_id"] == victim["worker_id"])
    assert killed["exit_code"] is None
    assert unborn["stderr_tail"][0] in killed["stderr_tail"]


def test_a_sharded_run_whose_zygote_dies_mid_run_still_completes():
    # About 230 windows: still far from done when the kill lands.
    coordinator = _storm_coordinator(num_workgroups=16,
                                     stores_per_wavefront=32)
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.update(result=coordinator.run()),
        daemon=True)
    thread.start()
    try:
        _wait_for(lambda: coordinator.shard_status()["windows"] >= 3,
                  "never reached a window", timeout=60.0)
        os.kill(coordinator._zygote.process.pid, signal.SIGKILL)
        windows_at_kill = coordinator.shard_status()["windows"]
        thread.join(timeout=120.0)
    finally:
        coordinator.close()
    assert not thread.is_alive()
    assert outcome["result"].completed
    assert outcome["result"].windows > windows_at_kill + 50


def test_a_shard_error_names_the_zygote_and_its_stderr(monkeypatch):
    real = coordinator_module.Zygote
    monkeypatch.setattr(coordinator_module, "Zygote",
                        lambda module: real("repro.shard.nonesuch"))
    coordinator = _storm_coordinator(num_workgroups=8,
                                     stores_per_wavefront=4)
    started = time.monotonic()
    with pytest.raises(ShardWorkerError) as error:
        coordinator.run()
    assert time.monotonic() - started < 30.0
    message = str(error.value)
    assert message.startswith("shard 0: ")
    assert "rc=None" in message
    assert "zygote of repro.shard.nonesuch" in message
    assert "No module named 'repro.shard.nonesuch'" in message


# ----------------------------------------------------------------------
# A fork computes what a process does
# ----------------------------------------------------------------------
def test_a_forked_worker_runs_a_job_as_the_process_does():
    def spec():
        return JobSpec("d", "fir", params={"num_samples": 2048})

    queue_ = JobQueue()
    queue_.submit(spec())
    manager = FleetManager(queue_, num_workers=1)
    manager.start()
    try:
        assert manager.wait(timeout=120)
    finally:
        manager.stop()
    forked = queue_.get("d").result

    server = RTMServer(Monitor())
    server.start()
    out = io.StringIO()
    try:
        job = spec()
        job.validate()
        with contextlib.redirect_stdout(out):
            assert _execute_job(job, 0, server, WorkerSettings())
    finally:
        server.stop()
    (done,) = [e for e in FrameDecoder().feed(out.getvalue().encode())
               if e["event"] == "done"]
    assert (forked["events"], forked["sim_time"]) == \
        (done["events"], done["sim_time"])
    assert forked["events"] > 0
