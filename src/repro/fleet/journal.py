"""The campaign write-ahead log: crash-safe fleet state on disk.

A fleet campaign used to live entirely in the manager's memory: kill
the manager process and every scheduling decision — which jobs
completed, which were mid-retry, which final metric expositions had
been harvested — died with it.  ``CampaignJournal`` is the durability
half of ISSUE 7's tentpole: an append-only JSONL write-ahead log that
records every scheduler transition *before* it takes effect in memory,
so ``fleet resume <journal>`` can rebuild the :class:`JobQueue` after a
``kill -9`` and finish the campaign exactly-once.

**Record format.**  One record per line::

    <crc32 hex8> <JSON object>\\n

The CRC is computed over the JSON bytes, so replay detects a
bit-flipped or torn record without trusting JSON's own (weak) framing.
This mirrors the fleet control channel's damage doctrine
(:class:`~repro.fleet.protocol.FrameDecoder`): a crash mid-write leaves
a torn final line, a disk hiccup can corrupt a record mid-file, and
replay must *tolerate* both — count them, skip them, keep going — not
die.  A torn tail is expected damage (the crash raced the write); a
corrupt record mid-file is counted separately because it means
something worse than a crash happened.

**Durability discipline.**  Appends are flushed always and fsync'd in
batches; records that change campaign outcome (``complete``, ``fail``)
are fsync'd immediately (``critical=True``).  Because fsync persists
every byte written to the file so far, a durable ``complete`` record
implies the ``final-metrics`` record emitted just before it is durable
too — the resume path's federated ``/metrics`` can therefore name
every completed job.

**Compaction.**  A long campaign's journal grows one record per
transition.  :meth:`compact` rewrites it as a single ``snapshot``
record (the full reconstructed state) via temp-file + fsync + atomic
rename, so a crash mid-compaction leaves the previous journal intact.
Replay applies a snapshot as a new baseline and continues with
whatever records follow it.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.atomicio import atomic_write_bytes
from .queue import JobQueue, JobSpec

__all__ = ["CampaignJournal", "JournalReplay", "replay_journal"]

#: Non-critical appends are fsync'd once this many records accumulate.
_FSYNC_BATCH = 16

#: Refuse to parse absurd journal lines (same cap doctrine as the
#: control channel's FrameDecoder).
_MAX_LINE_BYTES = 16 * 1024 * 1024


def _encode_record(record: Dict[str, Any]) -> bytes:
    body = json.dumps(record, separators=(",", ":"),
                      default=str).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%08x " % crc + body + b"\n"


def _decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """One journal line → record dict, or ``None`` if damaged."""
    if len(line) < 10 or line[8:9] != b" ":
        return None
    try:
        expected = int(line[:8], 16)
    except ValueError:
        return None
    body = line[9:]
    if zlib.crc32(body) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(body)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class CampaignJournal:
    """Append-only, fsync-batched WAL of one campaign's state.

    Open it on a path (existing journals are appended to — that is
    what lets a resumed campaign keep its history), attach it to a
    :class:`JobQueue` so every scheduler transition is recorded, and
    let the :class:`~repro.fleet.manager.FleetManager` add the records
    the queue cannot know about (worker checkpoints, final metric
    expositions).
    """

    def __init__(self, path: str, fsync_batch: int = _FSYNC_BATCH):
        self.path = str(path)
        self.fsync_batch = max(1, int(fsync_batch))
        self._lock = threading.Lock()
        self._attached: set = set()
        self._seq = 0
        self._unsynced = 0
        self.records_written = 0
        self.syncs = 0
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(self.path, "ab")

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, record_type: str, critical: bool = False,
               **fields: Any) -> Dict[str, Any]:
        """Append one record; returns it (with its sequence number).

        *critical* records — the ones that change campaign outcome —
        are fsync'd before returning; everything else is flushed
        immediately (a reader sees it) and fsync'd in batches (a crash
        may lose the tail of the batch, which replay treats as
        not-having-happened — safe, because the scheduler re-derives
        in-flight state from what *is* durable).
        """
        with self._lock:
            if self._fh is None:
                raise ValueError("journal is closed")
            record = {"type": record_type, "seq": self._seq, **fields}
            self._seq += 1
            self._fh.write(_encode_record(record))
            self._fh.flush()
            self.records_written += 1
            self._unsynced += 1
            if critical or self._unsynced >= self.fsync_batch:
                os.fsync(self._fh.fileno())
                self.syncs += 1
                self._unsynced = 0
            return record

    def close(self) -> None:
        with self._lock:
            if self._fh is None:
                return
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # Queue wiring
    # ------------------------------------------------------------------
    def attach(self, queue: JobQueue) -> None:
        """Record every scheduler transition of *queue* (idempotent —
        both the CLI and the manager may call this on the same pair).

        The observer runs inside the queue's lock, so journal order is
        transition order — replay never sees a ``complete`` for a job
        whose ``claim`` it hasn't seen.
        """
        if id(queue) in self._attached:
            return
        self._attached.add(id(queue))
        queue.subscribe(self._on_queue_event)

    def _on_queue_event(self, event: str, job) -> None:
        if event == "submit":
            self.append("submit", job_id=job.spec.job_id,
                        spec=job.spec.to_dict())
        elif event == "claim":
            self.append("claim", job_id=job.spec.job_id,
                        attempt=job.attempt, worker_id=job.worker_id)
        elif event == "complete":
            self.append("complete", critical=True,
                        job_id=job.spec.job_id, result=job.result)
        elif event == "fail":
            failure = job.failures[-1] if job.failures else {}
            self.append("fail", critical=True,
                        job_id=job.spec.job_id,
                        attempt=failure.get("attempt", job.attempt),
                        worker_id=failure.get("worker_id"),
                        error=failure.get("error"),
                        post_mortem=failure.get("post_mortem"),
                        requeued=job.state == "queued",
                        next_attempt=job.attempt)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, replay: "JournalReplay") -> None:
        """Atomically rewrite the journal as one ``snapshot`` record.

        The snapshot is *replay*'s reconstructed state (typically
        ``replay_journal(self.path)`` taken moments before, or the
        state a resume just rebuilt).  Written via temp + fsync +
        rename: a crash mid-compaction leaves the old journal intact,
        and the append handle is reopened on the new file so subsequent
        records land after the snapshot.
        """
        with self._lock:
            if self._fh is None:
                raise ValueError("journal is closed")
            snapshot = {"type": "snapshot", "seq": self._seq,
                        "campaign": replay.campaign,
                        "jobs": {job_id: dict(state) for job_id, state
                                 in replay.jobs.items()},
                        "checkpoints": dict(replay.checkpoints),
                        "final_metrics": dict(replay.final_metrics)}
            self._seq += 1
            atomic_write_bytes(self.path, _encode_record(snapshot))
            self._fh.close()
            self._fh = open(self.path, "ab")
            self._unsynced = 0
            self.records_written += 1
            self.syncs += 1


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class JournalReplay:
    """Campaign state reconstructed from a journal.

    ``jobs`` maps job_id → ``{spec, state, attempt, workers, result,
    failures}`` — the same shape :meth:`Job.to_dict` produces, which is
    what makes snapshots and incremental records interchangeable.
    """

    path: str
    records: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False
    duplicates: int = field(default=0, init=False)
    campaign: Dict[str, Any] = field(default_factory=dict)
    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    checkpoints: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    final_metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        counts = {"queued": 0, "running": 0, "completed": 0, "failed": 0}
        for state in self.jobs.values():
            counts[state.get("state", "queued")] = \
                counts.get(state.get("state", "queued"), 0) + 1
        counts["total"] = len(self.jobs)
        return counts

    # ------------------------------------------------------------------
    def build_queue(self) -> Tuple[JobQueue, List[str]]:
        """Rebuild a :class:`JobQueue` for resumption.

        Returns ``(queue, resumed_job_ids)``.  Terminal jobs
        (``completed`` / ``failed``) are restored terminal — they will
        never be dispatched again, which is the exactly-once half of
        the contract.  ``queued`` jobs are requeued as-is.  ``running``
        jobs — in flight when the manager died, with no durable result
        — are requeued at their *current* attempt: the attempt never
        produced a ``complete``/``fail`` record, so re-running it is
        finishing it, not repeating it.
        """
        queue = JobQueue()
        resumed: List[str] = []
        for job_id, state in self.jobs.items():
            spec = JobSpec.from_dict(state["spec"])
            job_state = state.get("state", "queued")
            requeue = job_state in ("queued", "running")
            queue.restore(
                spec,
                state="queued" if requeue else job_state,
                attempt=int(state.get("attempt", 0)),
                workers=list(state.get("workers", [])),
                result=state.get("result"),
                failures=list(state.get("failures", [])),
            )
            if requeue:
                resumed.append(job_id)
        return queue, resumed

    # ------------------------------------------------------------------
    # Record application
    # ------------------------------------------------------------------
    def _job(self, record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        return self.jobs.get(record.get("job_id"))

    def apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("type")
        if kind == "campaign":
            meta = {k: v for k, v in record.items()
                    if k not in ("type", "seq")}
            self.campaign.update(meta)
        elif kind == "snapshot":
            self.campaign = dict(record.get("campaign", {}))
            self.jobs = {job_id: dict(state) for job_id, state
                         in record.get("jobs", {}).items()}
            self.checkpoints = dict(record.get("checkpoints", {}))
            self.final_metrics = dict(record.get("final_metrics", {}))
        elif kind == "submit":
            job_id = record.get("job_id")
            if job_id is None:
                return
            if job_id in self.jobs:
                self.duplicates += 1
                return
            self.jobs[job_id] = {
                "spec": record.get("spec", {}),
                "state": "queued", "attempt": 0, "workers": [],
                "result": None, "failures": [],
            }
        elif kind == "claim":
            job = self._job(record)
            if job is None or job["state"] in ("completed", "failed"):
                return  # late or stray — terminal state wins
            job["state"] = "running"
            job["attempt"] = int(record.get("attempt", job["attempt"]))
            worker = record.get("worker_id")
            if worker is not None:
                job["workers"].append(worker)
        elif kind == "complete":
            job = self._job(record)
            if job is None:
                return
            if job["state"] == "completed":
                self.duplicates += 1  # duplicate completion: idempotent
                return
            job["state"] = "completed"
            job["result"] = record.get("result")
        elif kind == "fail":
            job = self._job(record)
            if job is None or job["state"] in ("completed", "failed"):
                if job is not None:
                    self.duplicates += 1
                return
            job["failures"].append({
                "attempt": record.get("attempt"),
                "worker_id": record.get("worker_id"),
                "error": record.get("error"),
                "post_mortem": record.get("post_mortem"),
            })
            if record.get("requeued"):
                job["state"] = "queued"
                job["attempt"] = int(
                    record.get("next_attempt", job["attempt"] + 1))
            else:
                job["state"] = "failed"
        elif kind == "checkpoint":
            job_id = record.get("job_id")
            if job_id is not None:
                self.checkpoints[job_id] = {
                    k: record.get(k)
                    for k in ("path", "attempt", "sim_time", "events")}
        elif kind == "final-metrics":
            job_id = record.get("job_id")
            if job_id is not None and record.get("text"):
                self.final_metrics[job_id] = {
                    "worker_id": record.get("worker_id"),
                    "attempt": record.get("attempt", 0),
                    "text": record.get("text"),
                }
        # Unknown record types are skipped silently: a newer journal
        # replayed by an older build loses features, not the campaign.


def replay_journal(path: str) -> JournalReplay:
    """Replay *path* into a :class:`JournalReplay`, tolerating damage.

    A missing trailing newline marks the final record as torn (the
    writer crashed mid-append) — expected, flagged, skipped.  A record
    that fails its CRC or JSON parse mid-file is counted in
    ``corrupt_records`` and skipped; every record after it still
    applies, because each line frames and checksums itself.
    """
    replay = JournalReplay(path=str(path))
    with open(path, "rb") as fh:
        buffer = b""
        while True:
            chunk = fh.read(1 << 20)
            if not chunk:
                break
            buffer += chunk
            while True:
                line, sep, rest = buffer.partition(b"\n")
                if not sep:
                    if len(buffer) > _MAX_LINE_BYTES:
                        replay.corrupt_records += 1
                        buffer = b""
                    break
                buffer = rest
                _apply_line(replay, line)
        if buffer.strip():
            # Unterminated final line: the classic torn tail.
            replay.torn_tail = True
    return replay


def _apply_line(replay: JournalReplay, line: bytes) -> None:
    line = line.rstrip(b"\r")
    if not line.strip():
        return
    record = _decode_record(line)
    if record is None:
        replay.corrupt_records += 1
        return
    replay.records += 1
    replay.apply(record)
