"""Every loop that wakes every N seconds is one ``Periodic``
(``repro/akita/threads.py``): one lifecycle, one failure rule, one name
per role.  Stated over all six owners — the monitor's sampler, the
watchdog, the continuous profiler, the series recorder, the historian
service and ``guarded``'s heartbeat (the
``progress`` lines of ``repro run``, sharded or not, and of a fleet
job).

``PYTHONPATH=src python -m tests.counts`` prints
``threads@monitored_fir``: the threads a monitored FIR run with every
plane attached has alive when it ends, its own included.
"""

import contextlib
import functools
import queue
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.akita import threads
from repro.akita.threads import Periodic, run_guarded
from repro.checkpoint import Checkpointer
from repro.core import Monitor, RTMClient, RTMClientError
from repro.core.export import SeriesRecorder, metric_target
from repro.core.watchdog import Watchdog, WatchdogConfig
from repro.fleet import FleetGateway
from repro.fleet.channel import WorkerChannel, Zygote
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.historian import Historian, HistorianService
from repro.metrics import expose, parse_exposition
from repro.profile import ContinuousProfiler
from repro.shard.coordinator import ShardGateway
from repro.workloads import FIR

INTERVAL = 0.01


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _named(name):
    return [t for t in threading.enumerate() if t.name == name]


def _platform():
    return GPUPlatform(GPUPlatformConfig.small(num_chiplets=1))


# ------------------------------------------------------------ the class
def test_a_name_no_role_rule_maps_is_refused():
    with pytest.raises(ValueError, match="fleet-progress"):
        Periodic("fleet-progress", INTERVAL, lambda: None)


def test_a_body_ends_its_own_loop_and_sleeps_interruptibly():
    woken = []

    def body():
        loop.stop()  # from its own thread: no join on itself
        woken.append(loop.wait(30.0))

    loop = Periodic("rtm-sampler", INTERVAL, body)
    loop.start()
    assert _wait(lambda: not loop.running)
    assert woken == [True] and loop.turns == 1


def test_the_interval_may_be_a_callable_read_every_turn():
    asked = []
    loop = Periodic("rtm-sampler",
                    lambda: asked.append(1) or INTERVAL, lambda: None)
    loop.start()
    assert _wait(lambda: loop.turns >= 3)
    loop.stop()
    assert not loop.running and len(asked) >= loop.turns


# ------------------------------------------------- the sampler survives
class _Flaky:
    """A component whose watched property raises the first time the
    sampler reads it."""

    name = "Flaky"
    raised = False

    @property
    def ratio(self):
        if not self.raised \
                and threading.current_thread().name == "rtm-sampler":
            self.raised = True
            return 1 // 0
        return 1


def test_a_watched_property_that_raises_once_does_not_end_sampling():
    platform = _platform()
    monitor = Monitor(platform.simulation)
    monitor.sample_interval = INTERVAL
    monitor.register_component(_Flaky())
    watch = monitor.watch_value("Flaky", "ratio")
    monitor.start_server()
    monitor.start_sampler()
    try:
        assert _wait(lambda: monitor.sampler.turns >= 4)
        assert monitor.sampler.running
        assert len(watch.points) >= 2, "later samples landed"
        assert monitor.sampler.failures == 1
        assert "ZeroDivisionError" in monitor.sampler.last_error
        sampler = RTMClient(monitor.url).overview()["sampler"]
        assert sampler["running"] is True
        assert sampler["failures"] == 1
        assert "ZeroDivisionError" in sampler["last_error"]
    finally:
        monitor.stop_server()
    assert not monitor.sampler.running


# --------------------------------------------- one lifecycle, six owners
def _sampler(tmp_path):
    monitor = Monitor(_platform().simulation)
    monitor.sample_interval = INTERVAL
    return monitor.sampler, monitor.start_sampler, monitor.stop_sampler


def _watchdog(tmp_path):
    watchdog = Watchdog(Monitor(_platform().simulation),
                        WatchdogConfig(check_interval=INTERVAL))
    return watchdog.loop, watchdog.start, watchdog.stop


def _profiler(tmp_path):
    profiler = ContinuousProfiler(interval=INTERVAL)
    return profiler.loop, profiler.start, profiler.stop


def _recorder(tmp_path):
    recorder = SeriesRecorder(None, [], interval=INTERVAL)
    return recorder.loop, recorder.start, recorder.stop


def _historian(tmp_path):
    service = HistorianService(Historian(tmp_path / "h.db"),
                               interval=INTERVAL)
    return service.loop, service.start, service.stop


def _progress(tmp_path):
    loop = threads._heartbeat(_platform().simulation.abort, lambda: None,
                              INTERVAL, wall_timeout=None)
    return loop, loop.start, loop.stop


OWNERS = [_sampler, _watchdog, _profiler, _recorder, _historian,
          _progress]


@pytest.mark.parametrize("owner", OWNERS)
def test_one_lifecycle(owner, tmp_path, monkeypatch):
    loop, start, stop = owner(tmp_path)
    assert isinstance(loop, Periodic)
    assert threads.role_of(0, loop.name) != "other"

    # A body that raises is counted and survived.
    body, raised = loop.body, []

    def raises_once():
        if not raised:
            raised.append(True)
            raise ZeroDivisionError("first turn")
        body()

    loop.body = raises_once
    start()
    start()
    assert len(_named(loop.name)) == 1, "start(); start() is one thread"
    assert _wait(lambda: loop.turns >= 3)
    assert loop.running
    assert loop.failures == 1
    assert loop.last_error == "ZeroDivisionError: first turn"
    began = time.monotonic()
    stop()
    assert time.monotonic() - began < threads.JOIN_TIMEOUT
    assert not loop.running and not _named(loop.name)

    # A body that overruns the join: stop() keeps the thread, and the
    # next start() revives that loop instead of adding a second one.
    entered, release = threading.Event(), threading.Event()

    def overruns():
        entered.set()
        release.wait(10.0)

    loop.body = overruns
    monkeypatch.setattr(threads, "JOIN_TIMEOUT", 0.05)
    start()
    assert entered.wait(5.0)
    stop()
    assert loop.running, "the thread that outlived the join is kept"
    start()
    assert len(_named(loop.name)) == 1
    loop.body = body
    turns = loop.turns
    release.set()
    assert _wait(lambda: loop.turns >= turns + 2), "the loop went on"
    assert len(_named(loop.name)) == 1
    monkeypatch.undo()
    stop()
    assert not loop.running and not _named(loop.name)


# ------------------------------------------------- the hang-history race
def test_stalled_for_walks_a_snapshot_while_the_sampler_appends():
    """One thread ``record()``-ing, another reading: zero exceptions
    (the parent walked the live deque — ``RuntimeError: deque mutated
    during iteration`` in one read of six)."""
    detector = Monitor(_platform().simulation).hang
    for _ in range(512):
        detector.record()
    done, errors = threading.Event(), []

    def writer():
        while not done.is_set():
            detector.record()

    thread = threading.Thread(target=writer, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread.start()
        for i in range(20000):
            try:
                detector.stalled_for() if i % 2 else detector.check()
            except RuntimeError as exc:
                errors.append(exc)
    finally:
        sys.setswitchinterval(interval)
        done.set()
        thread.join(5.0)
    assert not thread.is_alive()
    assert not errors, f"{len(errors)} of 20000 reads: {errors[0]}"


# ------------------------------------------------------ every plane on
@contextlib.contextmanager
def every_plane(tmp_path):
    """A FIR platform with every background thread this repo has
    beside a simulation but the one ``run_guarded`` adds (its
    heartbeat lives as long as the run); yields ``(platform, loops)``."""
    platform = _platform()
    FIR(num_samples=8192).enqueue(platform.driver)
    monitor = Monitor(platform.simulation)
    monitor.sample_interval = INTERVAL
    monitor.attach_driver(platform.driver)
    monitor.start_server()
    monitor.start_sampler()
    monitor.enable_watchdog(check_interval=INTERVAL)
    monitor.attach_checkpointer(Checkpointer(
        platform, str(tmp_path / "fir.rtm"), every_events=20_000,
        registry=monitor.metrics))
    monitor.checkpointer.start()
    monitor.ensure_tracer().start()
    monitor.ensure_sim_metrics().start()
    monitor.start_continuous_profiling(interval=INTERVAL)
    recorder = SeriesRecorder(
        RTMClient(monitor.url),
        [metric_target("rtm_engine_events_total")], interval=INTERVAL)
    recorder.start()
    service = HistorianService(Historian(tmp_path / "h.db"),
                               interval=INTERVAL)
    service.source = lambda: parse_exposition(expose(monitor.metrics))
    service.start()
    try:
        yield platform, [monitor.sampler, monitor.watchdog.loop,
                         monitor.profiler.loop, recorder.loop,
                         service.loop]
    finally:
        service.stop()
        service.historian.close()
        recorder.stop()
        recorder.client.close()
        monitor.stop_server()


def _rtm_roles():
    return {t.name: threads.role_of(t.ident, t.name)
            for t in threading.enumerate() if t.name.startswith("rtm-")}


@functools.cache
def monitored_fir():
    """One FIR run with every plane on: ``(rtm roles seen during the
    run, rtm roles alive after it, threads it started that are alive
    after it, the loops, the rtm threads left once it is torn down)``."""
    during = {}
    before = set(threading.enumerate())
    with tempfile.TemporaryDirectory() as tmp, \
            every_plane(Path(tmp)) as (platform, loops):
        assert run_guarded(platform, 60.0, interval=INTERVAL,
                           progress=lambda: during.update(_rtm_roles())) \
            == (True, "completed")
        assert not _named("rtm-progress"), "the heartbeat ends with its run"
        live = _rtm_roles()
        started = set(threading.enumerate()) - before
    left = [t.name for t in threading.enumerate() if t.name.startswith("rtm-")]
    return during, live, started, loops, left


def measure():
    """``threads@monitored_fir``: the threads a monitored FIR run with
    every plane on has alive at its end, the run's own thread
    included."""
    return {"threads@monitored_fir": len(monitored_fir()[2]) + 1}


def test_with_every_plane_on_no_rtm_thread_has_role_other():
    during, live, _, loops, left = monitored_fir()
    assert "rtm-progress" in during
    assert "other" not in during.values(), during
    assert {loop.name for loop in loops} <= set(live)
    assert "rtm-server" in live
    assert "other" not in live.values(), live
    assert all(loop.failures == 0 for loop in loops), \
        [loop.status() for loop in loops if loop.failures]
    assert not left
    assert measure()["threads@monitored_fir"] == len(loops) + 3, \
        "the loops, the server, its connection and the run's own thread"



def test_gateways_and_worker_channels_have_a_role():
    """The ``rtm-*`` threads that are not periodic: both gateways, a
    client connection to each, and a worker channel's pipe readers."""
    gateways = [FleetGateway(None), ShardGateway(None)]
    clients = []
    zygote = Zygote("repro.fleet.worker")
    channel = WorkerChannel(zygote, ["--worker-id", "w1"], queue.Queue(),
                            "w1")
    try:
        for gateway in gateways:
            gateway.start()
            clients.append(RTMClient(gateway.url))
            with pytest.raises(RTMClientError, match="404"):
                clients[-1]._get("/api/nonesuch")  # opens a -conn thread
        live = {t.name: threads.role_of(t.ident, t.name)
                for t in threading.enumerate()
                if t.name.startswith("rtm-")}
    finally:
        for client in clients:
            client.close()
        for gateway in gateways:
            gateway.stop()
        channel.shutdown()
        channel.reap(10.0)
        zygote.close()
    assert {"rtm-fleet-gateway", "rtm-fleet-gateway-conn",
            "rtm-shard-gateway", "rtm-shard-gateway-conn",
            "rtm-channel-w1-stdout", "rtm-channel-w1-stderr"} <= set(live)
    assert "other" not in live.values(), live
