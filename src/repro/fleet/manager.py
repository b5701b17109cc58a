"""The fleet manager: an async dispatcher over persistent warm workers.

``FleetManager`` drains a :class:`~repro.fleet.queue.JobQueue` through a
pool of ``num_workers`` persistent ``repro.fleet.worker`` processes.
``start()`` starts the pool's one :class:`~repro.fleet.channel.Zygote`,
which imports the worker module once, and forks every worker from it
(a replacement too); ``stop()`` stops and waits for it.  Each worker
starts its RTM HTTP server once, then accepts a *stream* of job assignments
over a :class:`~repro.fleet.channel.WorkerChannel` (commands down
stdin, framed events up stdout), rebuilding simulation state between
jobs instead of re-exec'ing.  This is what makes short-job campaigns
scale: a one-subprocess-per-attempt fleet measured 0.97x at 2 workers
because every attempt re-paid interpreter + platform startup and server
teardown.

The scheduler is a single thread blocked on the one queue every
worker's channel feeds, not a poll loop over ``Popen.poll`` or a timer:
a ``ready`` event dispatches the next queued job in the same scheduling
turn it arrives, and every job-queue transition that adds dispatchable
work (``submit``, a queued ``restore``, a ``fail`` that requeues) posts
that queue one coalesced wake item through :meth:`JobQueue.subscribe`,
as does :meth:`FleetManager.stop`.  Idle gaps are bounded by pipe and
thread hand-off latency, and an idle pool takes no turns at all.

**Failure discipline.**  A worker that dies mid-job (stdout EOF without
a result event) gets a post-mortem assembled from its exit code, last
control events and stderr tail; the job re-enters the queue at the
front of the line under :meth:`JobQueue.fail`'s retry policy.
Workers that crash are *recycled* — a replacement process is forked —
up to ``max_worker_restarts`` for the pool's lifetime; if the budget is
spent and no workers remain, the remaining jobs are failed rather than
left to hang the campaign.

A warm worker's final ``/metrics`` expositions are cached **per job**
(shipped through the control channel in ``final-metrics`` events): one
process serves many jobs, so "the exited worker's last scrape" is
not a meaningful unit — see :meth:`final_metrics`.
"""

from __future__ import annotations

import collections
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .channel import WorkerChannel, Zygote
from .queue import Job, JobQueue

__all__ = ["FleetManager", "WorkerHandle"]

#: Wall seconds a terminated worker gets to flush before SIGKILL.
_STOP_GRACE = 5.0

#: The item that wakes the scheduler for something no worker said
#: (channel items are ``(channel, arrival, event)`` tuples).
_WAKE = None


@dataclass
class WorkerHandle:
    """One worker subprocess and everything observed about it."""

    worker_id: str
    channel: WorkerChannel
    started_wall: float = field(init=False, default_factory=time.monotonic)
    job_id: Optional[str] = None      # currently assigned job
    attempt: int = 0
    state: str = "booting"  # booting | idle | running | exited
    url: Optional[str] = None
    jobs_done: int = 0
    exit_code: Optional[int] = None
    result: Optional[Dict[str, Any]] = None   # last done/failed event
    last_progress: Optional[Dict[str, Any]] = None
    events: collections.deque = field(
        default_factory=lambda: collections.deque(maxlen=50))

    def post_mortem(self) -> Dict[str, Any]:
        """What the manager knows about why this worker's job died."""
        report: Dict[str, Any] = {
            "worker_id": self.worker_id,
            "job_id": self.job_id,
            "attempt": self.attempt,
            "exit_code": self.exit_code,
            "worker_alive": self.state != "exited",
            "stderr_tail": list(self.channel.stderr_tail),
            "torn_frames": self.channel.decoder.errors,
        }
        source = self.result or {}
        if source.get("job_id") == self.job_id:
            report["run_state"] = source.get("run_state")
            report["watchdog"] = source.get("watchdog")
            report["error"] = source.get("error")
            report["fault_stats"] = source.get("fault_stats")
        if self.last_progress is not None:
            report["last_progress"] = dict(self.last_progress)
        return report

    def to_dict(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "job_id": self.job_id,
            "attempt": self.attempt,
            "pid": self.channel.process.pid,
            "url": self.url,
            "state": self.state,
            "jobs_done": self.jobs_done,
            "exit_code": self.exit_code,
            "last_progress": self.last_progress,
            "uptime_seconds": round(
                time.monotonic() - self.started_wall, 3),
            # Why a worker that never booted died (e.g. argparse
            # rejecting a worker flag) is only ever said here.
            "stderr_tail": (list(self.channel.stderr_tail)
                            if self.state == "exited" else []),
        }


class FleetManager:
    """Schedules a job queue across a pool of warm worker processes."""

    def __init__(self, queue: JobQueue, num_workers: int = 2,
                 worker_args: Optional[List[str]] = None,
                 max_worker_restarts: Optional[int] = None,
                 journal=None):
        if num_workers < 1:
            raise ValueError("need at least one worker slot")
        self.queue = queue
        self.num_workers = num_workers
        self.worker_args = list(worker_args or [])
        #: Optional :class:`~repro.fleet.journal.CampaignJournal`.  The
        #: queue's transitions are journaled by the journal's own queue
        #: observer (attached here, idempotently); the manager adds the
        #: records only it sees: worker checkpoints and final metric
        #: expositions.
        self.journal = journal
        if journal is not None:
            journal.attach(queue)
        #: Crashed workers replaced over the pool's lifetime.
        self.max_worker_restarts = (num_workers
                                    if max_worker_restarts is None
                                    else max_worker_restarts)
        self.drained = threading.Event()
        self._lock = threading.Lock()
        self._active: Dict[str, WorkerHandle] = {}
        self._history: List[WorkerHandle] = []
        #: job_id -> {"worker_id", "attempt", "text"}: final expositions
        #: shipped through the control channel (latest attempt wins).
        self._final_metrics: Dict[str, Dict[str, Any]] = {}
        #: job_id -> {"path", "attempt", "sim_time", "events"}: the
        #: last checkpoint each job announced.  A retry of the job is
        #: dispatched with ``resume_from`` pointing here, so the new
        #: attempt restarts from the snapshot instead of t=0.
        self._job_checkpoints: Dict[str, Dict[str, Any]] = {}
        #: job_id -> {"worker_id", "attempt", "summary"}: per-job
        #: continuous-profile digests shipped through the control
        #: channel (latest attempt wins), merged by the gateway into
        #: the campaign-wide /api/fleet/profile.
        self._profiles: Dict[str, Dict[str, Any]] = {}
        self._events: "queue_module.Queue" = queue_module.Queue()
        #: Turns the scheduler has taken and wake items posted to it:
        #: both stand still while nothing happens.
        self.scheduler_turns = 0
        self.wakes_posted = 0
        #: A wake item is in ``_events``, unread (guarded by the lock).
        self._wake_lock = threading.Lock()
        self._wake_pending = False
        queue.subscribe(self._on_transition)
        self._spawned = 0
        self._restarts_used = 0
        #: A worker exited and was not replaced (see wait_ready).
        self._slot_lost = False
        #: Notified when a worker announces ``ready`` or a slot is lost.
        self._pool_changed = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._zygote: Optional[Zygote] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._slot_lost = False
        self._zygote = Zygote("repro.fleet.worker")
        for _ in range(self.num_workers):
            self._spawn()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="rtm-fleet-scheduler")
        self._thread.start()
        # Jobs queued before this manager subscribed woke nobody.
        self._wake()

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until every worker has booted (announced its first
        ``ready``); True if they all did in time.  Useful to separate
        pool warm-up from campaign dispatch — e.g. when timing a
        campaign against a pre-warmed pool.

        Returns False as soon as a worker has exited without being
        replaced: nothing refills that slot, so the pool can never
        fill.  ``status()["workers"]`` says why it died."""
        def booted() -> bool:
            return sum(h.url is not None for h in self._active.values()
                       ) >= self.num_workers

        with self._pool_changed:
            self._pool_changed.wait_for(
                lambda: booted() or self._slot_lost, timeout)
            return booted()

    def stop(self) -> None:
        """Stop scheduling, shut the pool down, settle the queue."""
        self._stop.set()
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            active = list(self._active.values())
        for handle in active:
            handle.channel.shutdown()
            if handle.state == "running":
                # SIGTERM aborts the simulation; the worker still
                # flushes the job's result event before exiting.
                handle.channel.process.terminate()
        deadline = time.monotonic() + _STOP_GRACE
        for handle in active:
            handle.channel.reap(max(0.0, deadline - time.monotonic()))
        # Process whatever the workers flushed on the way out (a job
        # that completed during shutdown still counts), then fail any
        # job that never got a result.
        self._drain_events()
        for handle in active:
            self._finalize(handle)
        if self._zygote is not None:
            self._zygote.close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the queue drains; True if it did in time."""
        return self.drained.wait(timeout)

    # ------------------------------------------------------------------
    # Scheduler loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            item = self._events.get()
            self.scheduler_turns += 1
            self._handle_item(item)
            # Drain whatever else already arrived: scheduling
            # decisions should see the freshest picture.
            self._drain_events()
            self._dispatch()
            self._update_drained()

    def _on_transition(self, event: str, job: Job) -> None:
        """Queue observer (runs inside the queue's lock): a job that
        just became dispatchable is the scheduler's business."""
        if job.state == "queued":
            self._wake()

    def _wake(self) -> None:
        """Give the scheduler a turn.  Coalesced: a burst of submits
        finds the first one's item still unread and posts nothing."""
        with self._wake_lock:
            if self._wake_pending:
                return
            self._wake_pending = True
            self.wakes_posted += 1
        self._events.put(_WAKE)

    def _drain_events(self) -> None:
        while True:
            try:
                self._handle_item(self._events.get_nowait())
            except queue_module.Empty:
                return

    def _update_drained(self) -> None:
        counts = self.queue.counts()
        if counts["total"] > 0 and counts["queued"] == 0 \
                and counts["running"] == 0:
            self.drained.set()
        else:
            # A pool outlives a campaign: submitting more jobs to the
            # same queue re-arms `wait()`.
            self.drained.clear()

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _handle_item(self, item) -> None:
        if item is _WAKE:
            # Cleared before the turn looks at the queue: whoever finds
            # it still set made their change before this turn reads it.
            with self._wake_lock:
                self._wake_pending = False
            return
        channel, _arrival, event = item
        with self._lock:
            handle = self._active.get(channel.name)
        if handle is None:
            return  # already finalized (stop() raced the reader)
        if event is None:
            self._handle_eof(handle)
        else:
            self._handle_event(handle, event)

    def _handle_event(self, handle: WorkerHandle,
                      event: Dict[str, Any]) -> None:
        handle.events.append(event)
        kind = event.get("event")
        if kind == "ready":
            handle.url = event.get("url") or handle.url
            if handle.job_id is None:
                handle.state = "idle"
            with self._pool_changed:
                self._pool_changed.notify_all()
        elif kind == "started":
            handle.state = "running"
        elif kind == "progress":
            handle.last_progress = {
                k: event.get(k)
                for k in ("job_id", "sim_time", "events", "run_state")}
        elif kind == "checkpoint":
            job_id = event.get("job_id")
            if job_id:
                entry = {"path": event.get("path"),
                         "attempt": event.get("attempt", 0),
                         "sim_time": event.get("sim_time"),
                         "events": event.get("events")}
                self._job_checkpoints[job_id] = entry
                if self.journal is not None:
                    self.journal.append("checkpoint", job_id=job_id,
                                        **entry)
        elif kind == "final-metrics":
            job_id = event.get("job_id")
            text = event.get("metrics_text") or ""
            if job_id and text:
                self._final_metrics[job_id] = {
                    "worker_id": handle.worker_id,
                    "attempt": event.get("attempt", 0),
                    "text": text,
                }
                if self.journal is not None:
                    # Journaled *before* the (critical, fsync'd) result
                    # record, so a durable completion implies a durable
                    # exposition: the resumed campaign's federated
                    # /metrics names every finished job.
                    self.journal.append(
                        "final-metrics", job_id=job_id,
                        worker_id=handle.worker_id,
                        attempt=event.get("attempt", 0), text=text)
        elif kind == "profile-summary":
            job_id = event.get("job_id")
            summary = event.get("summary")
            if job_id and summary:
                self._profiles[job_id] = {
                    "worker_id": handle.worker_id,
                    "attempt": event.get("attempt", 0),
                    "summary": summary,
                }
        elif kind in ("done", "failed"):
            handle.result = event
            self._settle_job(handle, event)

    def _settle_job(self, handle: WorkerHandle,
                    event: Dict[str, Any]) -> None:
        job_id = event.get("job_id") or handle.job_id
        if job_id is None:
            return
        try:
            job_state = self.queue.get(job_id).state
        except KeyError:
            return  # a job this queue never issued (stray event)
        if job_state != "running":
            return  # already settled (e.g. failed at eof, event late)
        if event.get("event") == "done" and event.get("ok"):
            summary = {k: event.get(k)
                       for k in ("run_state", "sim_time", "events",
                                 "fault_stats", "trace", "resume",
                                 "checkpoints")}
            summary["worker_id"] = handle.worker_id
            summary["attempt"] = event.get("attempt", handle.attempt)
            self.queue.complete(job_id, summary)
            handle.jobs_done += 1
        else:
            state = event.get("run_state", "crashed")
            error = event.get("error") or f"run ended {state}"
            self.queue.fail(
                job_id,
                f"worker {handle.worker_id} reported {state}: {error}",
                handle.post_mortem())
        if handle.job_id == job_id:
            handle.job_id = None
            handle.state = "idle"

    def _handle_eof(self, handle: WorkerHandle) -> None:
        """A worker's stdout closed: the process is dead or dying."""
        self._finalize(handle)
        if self._stop.is_set():
            return
        # Recycle the slot if the pool still has work to do and the
        # restart budget allows.
        counts = self.queue.counts()
        work_left = counts["queued"] > 0 or counts["running"] > 0
        if work_left and self._restarts_used < self.max_worker_restarts:
            self._restarts_used += 1
            self._spawn()
            return
        with self._pool_changed:
            self._slot_lost = True
            self._pool_changed.notify_all()
        if work_left and not self._active:
            # Budget spent, pool empty: fail what remains rather than
            # hang the campaign.
            self._fail_pending("worker pool exhausted "
                               f"(restart budget {self.max_worker_restarts} "
                               "spent)")

    def _fail_pending(self, reason: str) -> None:
        while True:
            job = self.queue.claim("none")
            if job is None:
                return
            self.queue.fail(job.spec.job_id, reason, None)
            if self.queue.get(job.spec.job_id).state == "queued":
                # The retry policy requeued it, but there is nobody
                # left to run it: spend the budget until terminal.
                continue

    def _finalize(self, handle: WorkerHandle) -> None:
        with self._lock:
            if handle.worker_id not in self._active:
                return  # already finalized (stop() raced the reaper)
            del self._active[handle.worker_id]
            self._history.append(handle)
        handle.exit_code = handle.channel.reap(_STOP_GRACE)
        handle.state = "exited"
        if handle.job_id is not None:
            # Died without a result event for its assigned job.
            job_id = handle.job_id
            try:
                running = self.queue.get(job_id).state == "running"
            except KeyError:
                running = False
            if running:
                self.queue.fail(
                    job_id,
                    f"worker {handle.worker_id} exited "
                    f"{handle.exit_code} mid-job",
                    handle.post_mortem())
            handle.job_id = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        with self._lock:
            idle = [h for h in self._active.values()
                    if h.state == "idle"]
        for handle in idle:
            job = self.queue.claim(handle.worker_id)
            if job is None:
                return
            handle.job_id = job.spec.job_id
            handle.attempt = job.attempt
            handle.state = "running"  # optimistic; started confirms
            payload = {
                "cmd": "run",
                "spec": job.spec.to_dict(),
                "attempt": job.attempt,
            }
            resume_from = self._resume_path(job)
            if resume_from is not None:
                payload["resume_from"] = resume_from
            # A False send means the worker died between ready and
            # now; its EOF item is in flight and will requeue this job.
            handle.channel.send(payload)

    def _resume_path(self, job: Job) -> Optional[str]:
        """The checkpoint a dispatch of *job* should resume from, or
        ``None`` for a cold start.  Only retries resume — attempt 0
        has no history, and a stale checkpoint from a *previous
        campaign's* identical job id is exactly what the preload path
        is for, so presence in the map is the single source of truth."""
        if job.attempt <= 0:
            return None
        entry = self._job_checkpoints.get(job.spec.job_id)
        if not entry:
            return None
        return entry.get("path") or None

    def preload_resume(self, replay) -> None:
        """Prime the caches a resumed campaign needs from a
        :class:`~repro.fleet.journal.JournalReplay`: per-job final
        expositions (so the federated ``/metrics`` names jobs that
        completed *before* the crash) and last-known checkpoints (so
        requeued jobs resume instead of cold-starting)."""
        for job_id, entry in replay.final_metrics.items():
            self._final_metrics.setdefault(job_id, dict(entry))
        for job_id, entry in replay.checkpoints.items():
            self._job_checkpoints.setdefault(job_id, dict(entry))

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        channel = WorkerChannel(
            self._zygote, ["--worker-id", worker_id] + self.worker_args,
            self._events, worker_id)
        with self._lock:
            self._active[worker_id] = WorkerHandle(worker_id, channel)

    # ------------------------------------------------------------------
    # Views (consumed by the gateway and the CLI)
    # ------------------------------------------------------------------
    def live_workers(self) -> Dict[str, str]:
        """worker_id -> base URL for every booted, live worker."""
        with self._lock:
            return {h.worker_id: h.url for h in self._active.values()
                    if h.url is not None}

    def scrape_targets(self) -> List[Dict[str, str]]:
        """Live workers currently running a job, with the job identity
        a federated scrape must label their series with."""
        with self._lock:
            return [{"worker_id": h.worker_id, "job_id": h.job_id,
                     "url": h.url}
                    for h in self._active.values()
                    if h.url is not None and h.job_id is not None
                    and h.state == "running"]

    def final_metrics(self) -> Dict[str, Dict[str, Any]]:
        """job_id -> {worker_id, attempt, text}: the final Prometheus
        exposition of every job that shipped one (latest attempt wins),
        served from the control-channel cache long after the worker
        moved on — or died."""
        with self._lock:
            return {job_id: dict(entry)
                    for job_id, entry in self._final_metrics.items()}

    def profiles(self) -> Dict[str, Dict[str, Any]]:
        """job_id -> {worker_id, attempt, summary}: the continuous-
        profile digest of every job that shipped one (latest attempt
        wins) — the raw material of the campaign-wide profile."""
        with self._lock:
            return {job_id: dict(entry)
                    for job_id, entry in self._profiles.items()}

    def status(self) -> Dict[str, Any]:
        with self._lock:
            workers = ([h.to_dict() for h in self._active.values()]
                       + [h.to_dict() for h in self._history])
        return {
            "num_workers": self.num_workers,
            "drained": self.drained.is_set(),
            "worker_restarts": self._restarts_used,
            "worker_restart_budget": self.max_worker_restarts,
            "summary": self.queue.counts(),
            "workers": workers,
            "jobs": self.queue.to_dict(),
            "checkpoints": {job_id: dict(entry) for job_id, entry
                            in self._job_checkpoints.items()},
            "journal": (None if self.journal is None else {
                "path": self.journal.path,
                "records_written": self.journal.records_written,
                "syncs": self.journal.syncs,
            }),
        }
