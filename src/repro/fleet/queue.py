"""Parameterized jobs and the thread-safe queue that schedules them.

A :class:`JobSpec` is one point of a campaign's parameter grid — a
workload name, a chiplet count, optional workload-parameter overrides,
an optional fault to arm (chaos testing) — plus the restart policy
(``max_retries``).  The :class:`JobQueue` holds the grid, hands queued
jobs to the :class:`~repro.fleet.manager.FleetManager` in FIFO order,
and applies the restart policy when a worker dies: the job goes back to
the head of the line with its failure recorded, until the retry budget
is exhausted and the job is marked terminally failed.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..workloads import Workload, make_workload, workload_class

__all__ = ["JobSpec", "Job", "JobQueue"]


@dataclass
class JobSpec:
    """One parameterized simulation job.

    ``fault`` (a dict of ``POST /api/faults`` parameters: kind, target,
    start, ...) is armed on the first attempt only: the canonical chaos
    experiment, in which the restart policy proves a clean retry works.
    """

    job_id: str
    workload: str
    chiplets: int = 1
    params: Dict[str, Any] = field(default_factory=dict)
    buggy_l2: bool = False
    seed: int = 0
    fault: Optional[Dict[str, Any]] = None
    max_retries: int = 1
    #: Arm a ring-buffer tracer for this job's run; the worker reports
    #: the trace volume in its result event.
    trace: bool = False

    def validate(self) -> None:
        """Reject jobs that could never run before any worker is spent
        on them (the ``repro workloads --json`` catalog contract): the
        name and parameters are checked against the workload's class,
        and no workload is built."""
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        workload_class(self.workload, self.params)
        if self.chiplets < 1:
            raise ValueError("chiplets must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.fault is not None and "kind" not in self.fault:
            raise ValueError("fault needs at least a 'kind'")

    def build_workload(self) -> Workload:
        """A fresh workload instance at the scaled size, overrides
        applied."""
        return make_workload(self.workload, self.params)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


@dataclass
class Job:
    """A spec plus its scheduling state (owned by the queue's lock)."""

    spec: JobSpec
    state: str = "queued"  # queued | running | completed | failed
    attempt: int = 0       # 0-based index of the current/next attempt
    worker_id: Optional[str] = None
    workers: List[str] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    failures: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def retries(self) -> int:
        """Failed attempts that were given another go (a terminal
        failure's last attempt was not retried)."""
        return max(0, len(self.failures) - (
            1 if self.state == "failed" else 0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempt": self.attempt,
            "worker_id": self.worker_id,
            "workers": list(self.workers),
            "retries": self.retries,
            "result": self.result,
            "failures": list(self.failures),
        }


class JobQueue:
    """FIFO queue with duplicate-id rejection and a restart policy."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._pending: collections.deque = collections.deque()  # ids, FIFO
        #: Jobs per state and retries granted, kept in step with every
        #: transition: the scheduler asks each turn, a harness polls
        #: ``done``, and neither may cost a scan of the campaign.
        self._counts = {"queued": 0, "running": 0, "completed": 0,
                        "failed": 0}
        self._retries = 0
        #: Transition observers, called as ``fn(event, job)`` *inside*
        #: the queue's lock — observation order is transition order,
        #: which is what lets a write-ahead journal record a coherent
        #: history (a ``complete`` can never be journaled before its
        #: ``claim``).  Observers must be fast and must not call back
        #: into the queue.
        self._observers: List[Any] = []

    def subscribe(self, observer) -> None:
        """Register ``observer(event, job)`` for every transition
        (``submit`` / ``claim`` / ``complete`` / ``fail`` /
        ``restore``)."""
        self._observers.append(observer)

    def _notify(self, event: str, job: "Job") -> None:
        for observer in self._observers:
            observer(event, job)

    def _move(self, job: "Job", state: str) -> None:
        self._counts[job.state] -= 1
        self._counts[state] += 1
        job.state = state

    # -- submission ------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Validate and enqueue; duplicate job ids are an error (a
        campaign that submits the same id twice is confused, and silent
        replacement would corrupt the first job's history)."""
        spec.validate()
        with self._lock:
            if spec.job_id in self._jobs:
                raise ValueError(f"duplicate job id {spec.job_id!r}")
            job = Job(spec)
            self._jobs[spec.job_id] = job
            self._counts["queued"] += 1
            self._pending.append(spec.job_id)
            self._notify("submit", job)
            return job

    def submit_all(self, specs: List[JobSpec]) -> List[Job]:
        return [self.submit(spec) for spec in specs]

    def restore(self, spec: JobSpec, state: str = "queued",
                attempt: int = 0,
                workers: Optional[List[str]] = None,
                result: Optional[Dict[str, Any]] = None,
                failures: Optional[List[Dict[str, Any]]] = None) -> Job:
        """Re-admit a job with its pre-crash history (journal resume).

        Unlike :meth:`submit`, the job arrives mid-lifecycle: terminal
        jobs (``completed`` / ``failed``) are restored terminal and
        will never be dispatched again; ``queued`` jobs re-enter the
        FIFO carrying their accumulated attempt count and failure
        records, so the restart policy picks up exactly where the
        crashed manager left off.
        """
        if state not in ("queued", "completed", "failed"):
            raise ValueError(
                f"cannot restore a job in state {state!r} (a crashed "
                "'running' attempt restores as 'queued')")
        spec.validate()
        with self._lock:
            if spec.job_id in self._jobs:
                raise ValueError(f"duplicate job id {spec.job_id!r}")
            job = Job(spec, state=state, attempt=attempt,
                      workers=list(workers or []), result=result,
                      failures=list(failures or []))
            self._jobs[spec.job_id] = job
            self._counts[state] += 1
            self._retries += job.retries
            if state == "queued":
                self._pending.append(spec.job_id)
            self._notify("restore", job)
            return job

    # -- scheduling ------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Job]:
        """Pop the next queued job and mark it running on *worker_id*;
        ``None`` when nothing is waiting."""
        with self._lock:
            if not self._pending:
                return None
            job = self._jobs[self._pending.popleft()]
            self._move(job, "running")
            job.worker_id = worker_id
            job.workers.append(worker_id)
            self._notify("claim", job)
            return job

    def complete(self, job_id: str,
                 result: Optional[Dict[str, Any]] = None) -> Job:
        with self._lock:
            job = self._jobs[job_id]
            self._move(job, "completed")
            job.result = result
            job.worker_id = None
            self._notify("complete", job)
            return job

    def fail(self, job_id: str, error: str,
             post_mortem: Optional[Dict[str, Any]] = None) -> Job:
        """Record a failed attempt; requeue (at the front, so retries
        don't starve behind the rest of the campaign) while the retry
        budget lasts, else mark the job terminally failed."""
        with self._lock:
            job = self._jobs[job_id]
            job.failures.append({
                "attempt": job.attempt,
                "worker_id": job.worker_id,
                "error": error,
                "post_mortem": post_mortem,
            })
            job.worker_id = None
            if job.attempt < job.spec.max_retries:
                job.attempt += 1
                self._retries += 1
                self._move(job, "queued")
                self._pending.appendleft(job_id)
            else:
                self._move(job, "failed")
            self._notify("fail", job)
            return job

    # -- introspection ---------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {**self._counts, "total": len(self._jobs),
                    "retries": self._retries}

    @property
    def done(self) -> bool:
        """Every submitted job reached a terminal state."""
        with self._lock:
            return not (self._counts["queued"] or self._counts["running"])

    def to_dict(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [job.to_dict() for job in self._jobs.values()]

    def terminal_jobs(self, already: Dict[str, str]
                      ) -> List[Dict[str, Any]]:
        """The completed and failed jobs, as dicts, that *already* (job
        id → state) does not hold in that state: what a recorder has
        left to record.  Only those are serialised."""
        with self._lock:
            return [job.to_dict() for job in self._jobs.values()
                    if job.state in ("completed", "failed")
                    and already.get(job.spec.job_id) != job.state]
