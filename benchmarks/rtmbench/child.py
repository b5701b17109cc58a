"""The program under test, as one child process.

Started by :mod:`.proc` as ``python child.py '<json spec>'`` with
``src`` on ``PYTHONPATH``.  Calls only public API, times its own
phases, and talks JSON lines: it prints ``ready``, then answers each
stdin command (``run``, ``campaign``) with one event, and on stdin EOF
tears down and prints ``exit`` with every phase span and its peak RSS.

Phase stamps are ``time.monotonic()``, which on Linux is one clock for
every process, so the parent can lay child spans beside its own.

Every timed region is bracketed by :func:`timed_calibration` samples — a
fixed pure-Python loop, independent of the repo's code — so the parent
can express host seconds at a reference host speed: this sandbox's
speed drifts by tens of percent over seconds and minutes, and a
benchmark that cannot tell a slow host from a slow program resolves
nothing.
"""

import time

T_START = time.monotonic()

import contextlib  # noqa: E402 - the stamp above must come first
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def emit(event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def commands():
    """Parsed stdin commands until EOF."""
    for line in sys.stdin:
        if line.strip():
            yield json.loads(line)


class _Station:
    """One of the yardstick's event handlers."""

    __slots__ = ("index", "handled", "seen")

    def __init__(self, index):
        self.index = index
        self.handled = 0
        self.seen = {}

    def handle(self, serial, heap, now):
        self.handled += 1
        self.seen[serial & 63] = now
        heapq.heappush(heap, (now + 1 + (self.index * 31 + self.handled)
                              % 17, serial + 1, self))


def calibration_loop():
    """The yardstick: a toy event loop over 3000 handler objects —
    heap, attribute and dict traffic over a working set the size of
    the small platform's, which tracks the host's speed for this
    simulator better than arithmetic does.  It shares no code with the
    repo.  Never change it: every stored result is in its units."""
    stations = [_Station(i) for i in range(3000)]
    heap = [(i % 50, i * 1000000, s) for i, s in enumerate(stations)]
    heapq.heapify(heap)
    for _ in range(40000):
        now, serial, station = heapq.heappop(heap)
        station.handle(serial, heap, now)


def timed_calibration():
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def pin_to_one_cpu():
    """Keep this process, and every process it starts from now on, on
    one CPU.  Left free to spread over the two vCPUs, a fleet or a set
    of shards runs as fast as the second core happens to be free — a
    neighbour on the host, or one stray busy process in this
    container, and it takes twice as long.  On one CPU its wall time is
    the work all its processes do together, whoever else is on the
    host, and the single-process yardstick measures the host's speed
    for it as for every other child."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Phases:
    """``[name, layer, start, end]`` rows, in call order."""

    def __init__(self):
        self.rows = []

    @contextlib.contextmanager
    def __call__(self, name, layer):
        start = time.monotonic()
        try:
            yield
        finally:
            self.rows.append([name, layer, start, time.monotonic()])


def peak_rss_mb():
    """Largest resident set of this process or any waited-for
    descendant (Linux reports KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def exit_event(phases):
    emit({"event": "exit", "phases": phases.rows,
          "peak_rss_mb": peak_rss_mb()})


def committed(platform):
    """What the simulation computed: the non-interference oracle."""
    from repro.gpu import ComputeUnit
    cus = [c for c in platform.simulation.components
           if isinstance(c, ComputeUnit)]
    engine = platform.simulation.engine
    return {"event_count": engine.event_count,
            "sim_time": engine.now,
            "instructions": sum(c.num_instructions for c in cus),
            "wgs": sum(c.num_wgs_completed for c in cus),
            "mem_reqs": sum(c.num_mem_reqs for c in cus)}


def build_workload(kernel):
    from repro import workloads
    if kernel["name"] == "im2col":
        return workloads.Im2Col.scaled(**kernel["params"])
    cls = {"fir": workloads.FIR, "storestorm": workloads.StoreStorm}
    return cls[kernel["name"]](**kernel["params"])


# ----------------------------------------------------------------------
# One simulation: bare, or with the planes the spec switches on
# ----------------------------------------------------------------------
def sim_main(spec, phases):
    with phases("import", "gpu"):
        from repro.gpu import GPUPlatform, GPUPlatformConfig
        import repro.workloads  # noqa: F401
        if spec["monitor"]:
            from repro.core import Monitor
    with phases("gpu.build", "gpu"):
        platform = GPUPlatform(GPUPlatformConfig.small(**spec["config"]))
    with phases("workloads.enqueue", "workloads"):
        build_workload(spec["kernel"]).enqueue(platform.driver)
    monitor = profiler = url = None
    if spec["monitor"]:
        with phases("core.attach", "core"):
            monitor = Monitor(platform.simulation)
            monitor.attach_driver(platform.driver)
        with phases("core.start_server", "core"):
            url = monitor.start_server()
    if spec["instrument"]:
        with phases("metrics.start", "metrics"):
            monitor.ensure_sim_metrics().start()
        with phases("trace.start", "trace"):
            monitor.ensure_tracer(backend="ring").start()
    if spec["profile"]:
        with phases("profile.start", "profile"):
            # The profiler caches a thread's role per window; claim the
            # role Engine.run() will claim before the first sample can
            # land, or the run is filed under the main thread's name.
            from repro.profile import ContinuousProfiler, \
                register_current_thread
            register_current_thread("simulation")
            if monitor is not None:
                profiler = monitor.start_continuous_profiling()
            else:
                profiler = ContinuousProfiler()
                profiler.start()
    simulation = platform.simulation
    hooks = (simulation.engine.num_hooks
             + sum(c.num_hooks for c in simulation.components)
             + sum(c.num_hooks for c in simulation.connections))
    t_ready = time.monotonic()
    emit({"event": "ready", "t_start": T_START, "t": t_ready,
          "calibration_s": timed_calibration(),
          "url": url, "hooks": hooks,
          "components": simulation.component_names})
    for _ in commands():
        with phases("run", "akita"):
            start = time.perf_counter()
            completed = platform.run()
            wall = time.perf_counter() - start
        done = {"event": "done", "wall_s": wall, "completed": completed,
                **committed(platform)}
        if profiler is not None:
            profiler.stop()
            start = time.perf_counter()
            profiler.summary()
            done["profile"] = {
                "summary_ms": (time.perf_counter() - start) * 1e3,
                "samples": profiler.status()["samples"],
                "layers": profiler.layer_totals().get("simulation", {})}
        if spec["instrument"]:
            from repro.metrics import expose, family_total, \
                parse_exposition
            families = parse_exposition(expose(monitor.metrics))
            store = monitor.tracer.status()["store"]
            done["scrape"] = {
                "hook_seconds": family_total(
                    families, "rtm_hook_callback_seconds_total")[0],
                "events_total": family_total(
                    families, "rtm_engine_events_total")[0],
                "trace_recorded": store["recorded"],
                "trace_dropped": store["dropped"]}
        emit(done)
        # After ``done`` the load generator stops; then the yardstick.
        emit({"event": "calibration",
              "calibration_s": timed_calibration()})
    with phases("teardown", "core"):
        if monitor is not None:
            monitor.stop_server()
    exit_event(phases)


# ----------------------------------------------------------------------
# One sharded run
# ----------------------------------------------------------------------
def sharded_main(spec, phases):
    with phases("import", "shard"):
        from repro.gpu import GPUPlatformConfig
        from repro.metrics import expose, family_total, parse_exposition
        from repro.shard import ShardCoordinator
    config = GPUPlatformConfig.small(**spec["config"])
    workload = build_workload(spec["kernel"])
    pin_to_one_cpu()
    emit({"event": "ready", "t_start": T_START, "t": time.monotonic()})
    for _ in commands():
        before = timed_calibration()
        coordinator = ShardCoordinator(config, workload, spec["shards"])
        start = time.monotonic()
        try:
            result = coordinator.run()
        finally:
            coordinator.close()
        end = time.monotonic()
        after = timed_calibration()
        phases.rows.append(["shard.boot", "shard", start,
                            start + result.boot_seconds])
        phases.rows.append(["shard.run", "shard",
                            start + result.boot_seconds, end])
        families = parse_exposition(expose(coordinator.registry))
        emit({"event": "done", "completed": result.completed,
              "calibration_s": [before, after],
              "wall_s": result.wall_seconds - result.boot_seconds,
              "boot_s": result.boot_seconds,
              "event_count": result.events, "sim_time": result.sim_time,
              "instructions": result.instructions, "wgs": result.wgs,
              "mem_reqs": result.mem_reqs, "windows": result.windows,
              "boundary_msgs": result.boundary_messages,
              "barrier_wait_s": family_total(
                  families, "rtm_shard_barrier_wait_seconds_total")[0]})
    exit_event(phases)


# ----------------------------------------------------------------------
# One fleet pool serving campaigns
# ----------------------------------------------------------------------
def fleet_main(spec, phases):
    with phases("import", "fleet"):
        from repro.fleet import (CampaignJournal, FleetManager,
                                 JobQueue, JobSpec)
        from repro.gpu import GPUPlatform, GPUPlatformConfig
        from repro.historian import Historian, HistorianService
    workdir = spec["workdir"]
    pin_to_one_cpu()
    boots = []
    # Every boot but the last is booted only to be timed: set-up is
    # sampled several times per run, campaigns share one pool.
    for i in range(spec["boots"]):
        queue = JobQueue()
        journal = CampaignJournal(os.path.join(workdir, f"c{i}.wal"))
        manager = FleetManager(queue, num_workers=spec["workers"],
                               journal=journal)
        before = timed_calibration()
        with phases("fleet.boot", "fleet"):
            manager.start()
            booted = manager.wait_ready(timeout=60.0)
        boots.append({"boot_s": phases.rows[-1][3] - phases.rows[-1][2],
                      "calibration_s": [before, timed_calibration()]})
        if i < spec["boots"] - 1:
            manager.stop()
            journal.close()
    historian = Historian(os.path.join(workdir, "historian.db"))
    service = HistorianService(historian, manager=manager,
                               interval=0.25)
    service.start()
    transitions = []
    if spec["trace"]:
        queue.subscribe(lambda event, job: transitions.append(
            (event, job.spec.job_id, time.monotonic())))
    emit({"event": "ready", "t_start": T_START, "t": time.monotonic(),
          "booted": booted, "boots": boots})

    def reference_s(chiplets):
        """platform.run() of one job, in process: the work a job is."""
        platform = GPUPlatform(
            GPUPlatformConfig.small(num_chiplets=chiplets))
        JobSpec("ref", "fir", chiplets=chiplets,
                params=spec["params"]).build_workload().enqueue(
                    platform.driver)
        start = time.perf_counter()
        platform.run()
        return time.perf_counter() - start

    for command in commands():
        jobs = command["jobs"]
        solo = [timed_calibration()]
        ref = {c: reference_s(c)
               for c in sorted({j["chiplets"] for j in jobs})}
        solo.append(timed_calibration())
        specs = [JobSpec(j["job_id"], "fir", chiplets=j["chiplets"],
                         params=spec["params"]) for j in jobs]
        del transitions[:]
        before = timed_calibration()
        with phases("fleet.campaign", "fleet"):
            start = time.perf_counter()
            queue.submit_all(specs)
            deadline = start + 120.0
            while not queue.done and time.perf_counter() < deadline:
                time.sleep(0.002)
            wall = time.perf_counter() - start
        after = timed_calibration()
        mine = [queue.get(s.job_id) for s in specs]
        emit({"event": "campaign", "wall_s": wall,
              "calibration_s": [before, after],
              "reference_calibration_s": solo,
              "completed": sum(j.state == "completed" for j in mine),
              "event_count": sum((j.result or {}).get("events", 0)
                                 for j in mine),
              "ideal_s": sum(ref[j["chiplets"]] for j in jobs),
              "ref_s": sum(ref[j["chiplets"]] for j in jobs) / len(jobs),
              "retries": sum(j.retries for j in mine),
              "torn_frames": sum(
                  (f.get("post_mortem") or {}).get("torn_frames", 0)
                  for j in mine for f in j.failures),
              "transitions": list(transitions)})
    with phases("teardown", "fleet"):
        service.stop()
        manager.stop()
        journal.close()
        stats = historian.stats()
        historian.close()
    emit({"event": "store", "rows": stats["records"]["job"],
          "lost": stats["lost_records"] + stats["corrupt_records"]})
    exit_event(phases)


MODES = {"sim": sim_main, "sharded": sharded_main, "fleet": fleet_main}

if __name__ == "__main__":
    _spec = json.loads(sys.argv[1])
    MODES[_spec["mode"]](_spec, Phases())
