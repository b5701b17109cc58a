"""The fleet worker: a persistent process running monitored simulations.

Forked by the :class:`~repro.fleet.manager.FleetManager`'s zygote as
``main(["--worker-id", "w1"])`` (``python -m repro.fleet.worker
--worker-id w1`` runs the same), it starts the RTM HTTP server once,
then reads line-framed JSON commands from stdin (``run`` /
``shutdown``, see :mod:`repro.fleet.protocol`) and executes a *stream*
of jobs, rebuilding simulation state between jobs instead of
re-exec'ing.  The (cheap, ~1 ms) platform object graph is built from
scratch for every job — the only reset that provably cannot bleed
engine time, cache contents, metric counters or trace records from one
job into the next — while the expensive process-level state
(interpreter, imported modules, the HTTP server and its port) stays
warm.  One worker's RTM server thus spans many jobs: the URL announced
in ``ready`` is stable for the process lifetime and is rebound to each
job's fresh monitor.

**Event channel.**  The worker talks to its manager over stdout with
``@fleet``-prefixed JSON lines (:func:`repro.fleet.protocol.emit`):

* ``ready`` — ``{worker_id, pid, url, port, jobs_done}``: the worker
  is idle and will accept a ``run`` command (sent at boot and again
  after every job).
* ``started`` — ``{job_id, attempt}``: a run command was picked up.
* ``progress`` — ``{job_id, attempt, sim_time, events, run_state}``:
  periodic heartbeat while a job runs (drives fleet status views and
  lets the manager tell "slow" from "dead").
* ``final-metrics`` — ``{job_id, attempt, metrics_text}``: the job's
  final Prometheus exposition.  Shipped *before* the result event so
  the gateway's per-job cache is complete by the time the job is
  marked terminal — a scrape racing the completion can never observe
  a completed job with no series.
* ``profile-summary`` — ``{job_id, attempt, summary}``: the job's
  continuous-profile digest (layers, top functions, top stacks),
  emitted before the result when ``--profile`` is on so the gateway's
  campaign-wide profile is complete by the time the job is terminal.
* ``done`` / ``failed`` — the result: ``{job_id, attempt, ok,
  run_state, sim_time, events, watchdog, fault_stats, trace}``.

The worker exits 0 on ``shutdown`` or stdin EOF (an orphaned worker
whose manager died must not linger); a failed job is an event, never an
exit status.

A job runs in :func:`~repro.akita.threads.run_guarded`: SIGTERM/SIGINT
abort it, flush its result and exit 0 — ``FleetManager.stop()`` never
leaves half-written control traffic behind.
"""

from __future__ import annotations

import argparse
import os
import signal  # noqa: F401 - every job's guard needs it; boot pays
import sys
from dataclasses import dataclass
from typing import List, Optional

from ..akita.threads import SignalGuard, run_guarded
from ..core import Monitor
from ..core.server import RTMServer
# Every job's enable_watchdog() and ensure_sim_metrics() run them; boot
# pays for them, not job one.
from ..core.watchdog import Watchdog  # noqa: F401
from ..gpu import GPUPlatform
from ..metrics import expose
from ..metrics.instrument import SimMetrics  # noqa: F401
from ..workloads import build_platform
from .protocol import CONTROL_PREFIX, decode_command, emit
from .queue import JobSpec

__all__ = ["main", "CONTROL_PREFIX", "WorkerSettings"]


#: Supervision tuned for fleet duty: a worker that stalls is a wasted
#: slot, so hangs are confirmed fast (0.75 s without progress) and
#: aborted after one recovery attempt rather than debugged interactively.
STALL_THRESHOLD = 0.75
WATCHDOG_INTERVAL = 0.1
HANG_WAIT = 60.0
PROGRESS_INTERVAL = 0.2


@dataclass
class WorkerSettings:
    """What the manager's command line sets for every job this worker
    runs (the parser below declares the same four)."""

    #: Where per-job checkpoints are written (``None`` disables
    #: checkpointing; the event cadence must also be non-zero).
    checkpoint_dir: Optional[str] = None
    checkpoint_events: int = 0
    #: Run every job under the continuous profiler and ship a profile
    #: summary up the control channel.
    profile: bool = False
    profile_interval: float = 0.02


def _emit_failed(job_id: Optional[str], attempt: int, run_state: str,
                 error: str) -> None:
    emit({"event": "failed", "job_id": job_id, "attempt": attempt,
          "ok": False, "run_state": run_state, "error": error,
          "watchdog": None, "fault_stats": {}, "trace": None})


def _arm_fault(monitor: Monitor, spec: JobSpec) -> None:
    from ..faults.injector import FaultKind, FaultSpec
    fault = dict(spec.fault or {})
    kind = FaultKind(fault.pop("kind"))
    target = fault.pop("target", "*")
    injector = monitor.ensure_injector(seed=spec.seed)
    injector.inject(FaultSpec(kind, target, **fault))


def _build_platform(spec: JobSpec, resume_from: Optional[str]):
    """The job's platform: resumed from a checkpoint when one is given
    and loadable, else built cold.  Returns ``(platform, resume)``
    where *resume* describes the restore (``None`` = cold start; a
    failed restore falls back to cold with the error recorded — a
    stale or damaged checkpoint must cost a cold start, not the job).
    """
    resume = None
    if resume_from is not None:
        from ..checkpoint import CheckpointError, load_checkpoint
        try:
            platform, header = load_checkpoint(
                resume_from, workload=spec.build_workload())
            return platform, {
                "path": resume_from,
                "sim_time": platform.engine.now,
                "events": platform.engine.event_count,
                "checkpoint_seq": header["meta"].get("checkpoint_seq"),
            }
        except CheckpointError as exc:
            resume = {"path": resume_from, "error": str(exc)}
    platform, _ = build_platform(spec.workload, spec.chiplets,
                                 params=spec.params,
                                 buggy_l2=spec.buggy_l2)
    return platform, resume


def _make_checkpointer(platform: GPUPlatform, spec: JobSpec,
                       attempt: int, settings: WorkerSettings,
                       monitor: Monitor):
    """Per-job checkpoint cadence, announcing each save upstream so
    the manager can hand the path back as ``resume_from`` on retry."""
    from ..checkpoint import Checkpointer
    os.makedirs(settings.checkpoint_dir, exist_ok=True)
    path = os.path.join(settings.checkpoint_dir, f"{spec.job_id}.rtm")

    def announce(header):
        meta = header.get("meta", {})
        emit({"event": "checkpoint", "job_id": spec.job_id,
              "attempt": attempt, "path": path,
              "sim_time": meta.get("sim_time"),
              "events": meta.get("event_count")})

    return Checkpointer(platform, path,
                        every_events=settings.checkpoint_events,
                        meta={"job_id": spec.job_id, "attempt": attempt},
                        on_save=announce, registry=monitor.metrics)


def _execute_job(spec: JobSpec, attempt: int, server: RTMServer,
                 settings: WorkerSettings,
                 resume_from: Optional[str] = None) -> bool:
    """Run one job against *server*, emitting the full event sequence
    (``started`` … ``progress`` … ``final-metrics`` …
    ``done``/``failed``).  Returns the job's success.

    Everything simulation-scoped — platform, monitor, registry,
    watchdog, tracer, checkpointer — is built fresh here and torn down
    before returning; only the process and *server* survive into the
    next call.  That construction-per-job *is* the warm worker's reset.
    """
    emit({"event": "started", "job_id": spec.job_id,
          "attempt": attempt, "resume_from": resume_from})
    monitor: Optional[Monitor] = None
    failing_as = "rejected"  # a bad build; a bad run is "crashed"
    try:
        platform, resume = _build_platform(spec, resume_from)
        monitor = Monitor.for_platform(platform)
        monitor.hang.stall_threshold = STALL_THRESHOLD
        # The process-lifetime server now fronts this job's monitor:
        # the dashboard URL spans jobs, the simulation behind it is new.
        server.rebind(monitor)
        if settings.checkpoint_dir is not None \
                and settings.checkpoint_events > 0:
            monitor.attach_checkpointer(_make_checkpointer(
                platform, spec, attempt, settings, monitor))
            monitor.checkpointer.start()
        monitor.enable_watchdog(
            check_interval=WATCHDOG_INTERVAL,
            max_tick_retries=1,
            retry_wait=WATCHDOG_INTERVAL)
        if spec.fault is not None and attempt == 0 \
                and (resume is None or "error" in resume):
            # A resumed attempt never re-arms its fault: the snapshot
            # already carries whatever damage the fault did, and the
            # retry exists to finish the job, not re-break it.
            _arm_fault(monitor, spec)
        if spec.trace:
            monitor.ensure_tracer(backend="ring").start()
        # Instrument from t=0 so the federated scrape carries the whole
        # run, not just whatever happened after the first scrape.
        monitor.ensure_sim_metrics().start()
        if settings.profile:
            # Short fleet jobs want short windows: a one-window job
            # would otherwise summarize as an empty ring.
            monitor.start_continuous_profiling(
                interval=settings.profile_interval,
                window_seconds=1.0)
        if resume is not None and "error" not in resume:
            monitor.metrics.counter(
                "rtm_job_resumes_total",
                "Attempts restarted from a checkpoint instead of t=0."
            ).inc()
            monitor.metrics.gauge(
                "rtm_job_resume_sim_time",
                "Virtual time this attempt resumed from."
            ).set(float(resume["sim_time"]))
        failing_as = "crashed"

        def beat() -> None:
            emit({"event": "progress", "job_id": spec.job_id,
                  "attempt": attempt, "sim_time": platform.simulation.now,
                  "events": platform.engine.event_count,
                  "run_state": platform.simulation.run_state})

        ok = run_guarded(platform, HANG_WAIT, progress=beat,
                         interval=PROGRESS_INTERVAL)[1] == "completed"
    except Exception as exc:  # a result too: report it, stay alive
        _emit_failed(spec.job_id, attempt, failing_as,
                     f"{type(exc).__name__}: {exc}")
        if monitor is not None:
            monitor.stop_planes()
        return False

    checkpointer = monitor.checkpointer
    if checkpointer is not None:
        checkpointer.stop()  # a settled status() for the result below
    injector = monitor.injector
    tracer = monitor.tracer
    result = {
        "job_id": spec.job_id,
        "attempt": attempt,
        "ok": ok,
        "run_state": platform.simulation.run_state,
        "sim_time": platform.simulation.now,
        "events": platform.engine.event_count,
        "watchdog": monitor.watchdog.report,
        "fault_stats": injector.stats() if injector is not None else {},
        "trace": tracer.status() if tracer is not None else None,
        "resume": resume,
        "checkpoints": (checkpointer.status()
                        if checkpointer is not None else None),
    }
    if monitor.profiler is not None:
        # Stop sampling, then ship the job's profile digest ahead of
        # the result (like final-metrics: the gateway's campaign
        # profile must be complete when the job goes terminal).
        monitor.profiler.stop()
        emit({"event": "profile-summary", "job_id": spec.job_id,
              "attempt": attempt,
              "summary": monitor.profiler.summary()})
    # Final exposition first (see module docstring: the gateway's
    # per-job cache must be complete before the job goes terminal).
    # The instrumentation stops first: its last collect is the one the
    # exposition shows, so the job's registry is collected once.
    monitor.sim_metrics.stop()
    emit({"event": "final-metrics", "job_id": spec.job_id,
          "attempt": attempt, "metrics_text": expose(monitor.metrics)})
    emit({"event": ("done" if ok else "failed"), **result})
    monitor.stop_planes()
    return ok


def main(argv: List[str]) -> int:
    """Boot once, run jobs from stdin until shutdown/EOF."""
    args = vars(_build_parser().parse_args(argv))
    worker_id = args.pop("worker_id")
    settings = WorkerSettings(**args)
    # Boot the process-lifetime server against an idle placeholder
    # monitor; each job rebinds it.  Booting the server *before*
    # announcing ready is what lets the gateway proxy this worker the
    # moment its first job is assigned.
    server = RTMServer(Monitor())
    server.start()
    jobs_done = 0

    def ready() -> None:
        emit({"event": "ready", "worker_id": worker_id,
              "pid": os.getpid(), "url": server.url,
              "port": server.port, "jobs_done": jobs_done})

    ready()
    try:
        with SignalGuard() as guard:
            for line in sys.stdin:
                command = decode_command(line)
                if command is None:
                    continue
                cmd = command.get("cmd")
                if cmd == "shutdown" or guard.requested:
                    break
                if cmd != "run":
                    _emit_failed(None, command.get("attempt", 0),
                                 "rejected", f"unknown command {cmd!r}")
                    ready()  # still idle, still serving
                    continue
                attempt = int(command.get("attempt", 0))
                try:
                    spec = JobSpec.from_dict(command["spec"])
                    spec.validate()
                except (KeyError, ValueError, TypeError) as exc:
                    _emit_failed((command.get("spec") or {}).get("job_id"),
                                 attempt, "rejected", f"bad spec: {exc}")
                    ready()
                    continue
                ok = _execute_job(spec, attempt, server, settings,
                                  resume_from=command.get("resume_from"))
                if ok:
                    jobs_done += 1
                if guard.requested:
                    break
                ready()
    finally:
        server.stop()
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.fleet.worker",
        description="fleet-managed monitored simulation worker")
    parser.add_argument("--worker-id", default="w?",
                        help="identity echoed in ready events")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="write per-job checkpoints here (enables "
                             "resume-from-checkpoint retries)")
    parser.add_argument("--checkpoint-events", type=int, default=0,
                        help="checkpoint every N simulation events")
    parser.add_argument("--profile", action="store_true",
                        help="run every job under the continuous "
                             "profiler; ship profile summaries upstream")
    parser.add_argument("--profile-interval", type=float, default=0.02,
                        help="continuous-profiler sampling interval")
    return parser


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main(sys.argv[1:]))
