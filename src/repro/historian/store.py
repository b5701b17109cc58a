"""The historian's repository layer: campaigns as durable SQLite rows.

Everything the live monitor learns evaporates when its process exits —
metrics, watchdog verdicts, which jobs a campaign ran.  The
:class:`Historian` is the system of record underneath it: one WAL-mode
SQLite database holding, across campaigns,

* **snapshot** records — federated fleet metric snapshots sampled on a
  cadence from the gateway;
* **job** records — per-job outcomes and final Prometheus expositions;
* **postmortem** records — watchdog verdicts with their
  ``resume_checkpoint`` and trace-window pointers;
* **alert** records — deduplicated firing/resolved rule transitions.

**Write path.**  Appends go to an in-memory pending list and land in
one ``executemany`` per batch (the :class:`~repro.trace.store.
SQLiteStore` discipline), so ingest never holds a transaction open on
the sampling cadence.  Every row carries a CRC32 of its payload bytes,
the :mod:`repro.fleet.journal` trick: replay detects a bit-flipped row
without trusting SQLite's own page checksums (it has none).

**Damage doctrine** mirrors the journal replay suite: a truncated or
corrupt database must *degrade*, never crash the fleet.  Reads collect
what survives and count what didn't (``corrupt_records`` for CRC
mismatches, ``read_errors`` for pages SQLite itself gave up on);
writes that hit a damaged file flip the store into a degraded mode
that counts ``lost_records`` instead of raising into the scheduler.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..metrics.exposition import family_total, parse_exposition

__all__ = ["Historian", "RetentionPolicy", "RECORD_KINDS"]

#: The record kinds the historian persists (also the retention axis).
RECORD_KINDS = ("snapshot", "job", "postmortem", "alert", "profile")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id   TEXT PRIMARY KEY,
    started_wall  REAL NOT NULL,
    finished_wall REAL,
    meta          TEXT NOT NULL DEFAULT '{}'
);
CREATE TABLE IF NOT EXISTS records (
    id          INTEGER PRIMARY KEY,
    campaign_id TEXT NOT NULL,
    kind        TEXT NOT NULL,
    name        TEXT NOT NULL DEFAULT '',
    wall        REAL NOT NULL,
    payload     TEXT NOT NULL,
    crc         INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_campaign_kind
    ON records (campaign_id, kind);
CREATE INDEX IF NOT EXISTS idx_records_kind_wall
    ON records (kind, wall);
"""


@dataclass
class RetentionPolicy:
    """Age- and count-based retention for one record kind.

    ``max_age`` prunes rows whose wall timestamp has fallen out of the
    window; ``max_count`` keeps only the newest N rows of the kind.
    Either bound may be ``None`` (unbounded on that axis)."""

    kind: str
    max_age: Optional[float] = None
    max_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {self.kind!r}; "
                             f"use one of {RECORD_KINDS}")


def _crc(payload: str) -> int:
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


@dataclass
class _Damage:
    """What the store survived (exposed via :meth:`Historian.stats`)."""

    corrupt_records: int = 0
    read_errors: int = 0
    lost_records: int = 0
    degraded: bool = False
    errors: List[str] = field(default_factory=list)

    def note(self, exc: BaseException) -> None:
        if len(self.errors) < 8:  # keep the first few verdicts
            self.errors.append(f"{type(exc).__name__}: {exc}")


class Historian:
    """The campaign system of record (see module docstring).

    Thread-safe: the fleet scheduler, the sampling service and HTTP
    query handlers share one instance behind one lock, with reads
    flushing pending writes first so a query never misses its own
    campaign's rows.
    """

    def __init__(self, path: Any, batch_size: int = 64,
                 flush_interval: float = 0.5):
        self.path = str(path)
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self._lock = threading.RLock()
        self._pending: List[tuple] = []
        self._last_flush = time.monotonic()
        self.damage = _Damage()
        self._conn: Optional[sqlite3.Connection] = None
        try:
            conn = sqlite3.connect(self.path, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
            self._conn = conn
        except sqlite3.Error as exc:
            # A damaged file must not take the fleet down with it: the
            # store opens degraded and counts what it drops.
            self.damage.degraded = True
            self.damage.note(exc)

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------
    def begin_campaign(self, campaign_id: Optional[str] = None,
                       meta: Optional[Dict[str, Any]] = None) -> str:
        campaign_id = campaign_id or f"campaign-{int(time.time())}"
        with self._lock:
            self._execute(
                "INSERT INTO campaigns (campaign_id, started_wall, meta)"
                " VALUES (?, ?, ?) ON CONFLICT (campaign_id) DO UPDATE"
                " SET started_wall = excluded.started_wall,"
                "     finished_wall = NULL, meta = excluded.meta",
                (campaign_id, time.time(),
                 json.dumps(meta or {}, default=str)))
        return campaign_id

    def end_campaign(self, campaign_id: str) -> None:
        with self._lock:
            self.flush()
            self._execute(
                "UPDATE campaigns SET finished_wall = ?"
                " WHERE campaign_id = ?", (time.time(), campaign_id))

    # ------------------------------------------------------------------
    # Ingest (batched)
    # ------------------------------------------------------------------
    def record(self, campaign_id: str, kind: str, payload: Dict[str, Any],
               name: str = "", wall: Optional[float] = None) -> None:
        """Append one record; lands in the next batched flush."""
        if kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        text = json.dumps(payload, separators=(",", ":"), default=str)
        row = (campaign_id, kind, name,
               time.time() if wall is None else wall, text, _crc(text))
        with self._lock:
            self._pending.append(row)
            now = time.monotonic()
            if (len(self._pending) >= self.batch_size
                    or now - self._last_flush >= self.flush_interval):
                self.flush()

    def flush(self) -> None:
        with self._lock:
            if not self._pending:
                self._last_flush = time.monotonic()
                return
            rows, self._pending = self._pending, []
            self._last_flush = time.monotonic()
            if self._conn is None:
                self.damage.lost_records += len(rows)
                return
            try:
                self._conn.executemany(
                    "INSERT INTO records (campaign_id, kind, name, wall,"
                    " payload, crc) VALUES (?, ?, ?, ?, ?, ?)", rows)
                self._conn.commit()
            except sqlite3.Error as exc:
                self.damage.degraded = True
                self.damage.lost_records += len(rows)
                self.damage.note(exc)

    def close(self) -> None:
        with self._lock:
            self.flush()
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    # ------------------------------------------------------------------
    # Guarded SQL (the damage doctrine)
    # ------------------------------------------------------------------
    def _execute(self, sql: str, args: Sequence[Any] = ()) -> None:
        if self._conn is None:
            self.damage.lost_records += 1
            return
        try:
            self._conn.execute(sql, args)
            self._conn.commit()
        except sqlite3.Error as exc:
            self.damage.degraded = True
            self.damage.lost_records += 1
            self.damage.note(exc)

    def _rows(self, sql: str, args: Sequence[Any] = ()) -> List[tuple]:
        """Read what survives: rows fetched before a page error are
        returned, the error is counted, nothing raises."""
        if self._conn is None:
            return []
        try:
            cursor = self._conn.execute(sql, args)
        except sqlite3.Error as exc:
            self.damage.read_errors += 1
            self.damage.note(exc)
            return []
        rows: List[tuple] = []
        while True:
            try:
                row = cursor.fetchone()
            except sqlite3.Error as exc:
                self.damage.read_errors += 1
                self.damage.note(exc)
                break
            if row is None:
                break
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def campaigns(self) -> List[Dict[str, Any]]:
        """Every campaign, oldest first, with per-kind record counts."""
        with self._lock:
            self.flush()
            rows = self._rows(
                "SELECT campaign_id, started_wall, finished_wall, meta"
                " FROM campaigns ORDER BY started_wall, campaign_id")
            counts = self._rows(
                "SELECT campaign_id, kind, COUNT(*) FROM records"
                " GROUP BY campaign_id, kind")
        by_campaign: Dict[str, Dict[str, int]] = {}
        for campaign_id, kind, count in counts:
            by_campaign.setdefault(campaign_id, {})[kind] = count
        out = []
        for campaign_id, started, finished, meta in rows:
            try:
                meta = json.loads(meta)
            except (TypeError, ValueError):
                meta = {}
            out.append({"campaign_id": campaign_id,
                        "started_wall": started,
                        "finished_wall": finished,
                        "meta": meta,
                        "records": by_campaign.get(campaign_id, {})})
        return out

    def query(self, campaign_id: Optional[str] = None,
              kind: Optional[str] = None, name: Optional[str] = None,
              since: Optional[float] = None,
              until: Optional[float] = None,
              limit: int = 1000) -> List[Dict[str, Any]]:
        """Filtered records, oldest first, CRC-verified.

        Rows whose payload fails its CRC or no longer parses are
        skipped and counted in ``stats()["corrupt_records"]`` — the
        journal replay contract, applied to SQLite."""
        clauses, args = [], []
        if campaign_id is not None:
            clauses.append("campaign_id = ?")
            args.append(campaign_id)
        if kind is not None:
            clauses.append("kind = ?")
            args.append(kind)
        if name is not None:
            clauses.append("name = ?")
            args.append(name)
        if since is not None:
            clauses.append("wall >= ?")
            args.append(since)
        if until is not None:
            clauses.append("wall <= ?")
            args.append(until)
        sql = ("SELECT id, campaign_id, kind, name, wall, payload, crc"
               " FROM records")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY id"
        if limit:
            sql += f" LIMIT {int(limit)}"
        with self._lock:
            self.flush()
            rows = self._rows(sql, args)
        out = []
        for row_id, cid, rkind, rname, wall, payload, crc in rows:
            if _crc(payload) != crc:
                self.damage.corrupt_records += 1
                continue
            try:
                parsed = json.loads(payload)
            except (TypeError, ValueError):
                self.damage.corrupt_records += 1
                continue
            out.append({"id": row_id, "campaign_id": cid,
                        "kind": rkind, "name": rname, "wall": wall,
                        "payload": parsed})
        return out

    def jobs(self, campaign_id: str) -> List[Dict[str, Any]]:
        """One entry per job of *campaign_id* (latest record wins)."""
        return self._latest(campaign_id, "job")

    def _latest(self, campaign_id: str, kind: str
                ) -> List[Dict[str, Any]]:
        """Each job of *campaign_id*'s latest *kind* record, by id."""
        latest = {record["name"]: record for record
                  in self.query(campaign_id, kind=kind, limit=0)}
        return [latest[name] for name in sorted(latest)]

    def postmortems(self, campaign_id: str) -> List[Dict[str, Any]]:
        return self.query(campaign_id, kind="postmortem", limit=0)

    def alerts(self, campaign_id: Optional[str] = None
               ) -> List[Dict[str, Any]]:
        return self.query(campaign_id, kind="alert", limit=0)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            self.flush()
            counts = dict(self._rows(
                "SELECT kind, COUNT(*) FROM records GROUP BY kind"))
            campaigns = self._rows("SELECT COUNT(*) FROM campaigns")
        return {
            "path": self.path,
            "campaigns": campaigns[0][0] if campaigns else 0,
            "records": {kind: counts.get(kind, 0)
                        for kind in RECORD_KINDS},
            "degraded": self.damage.degraded,
            "corrupt_records": self.damage.corrupt_records,
            "read_errors": self.damage.read_errors,
            "lost_records": self.damage.lost_records,
            "errors": list(self.damage.errors),
        }

    # ------------------------------------------------------------------
    # Campaign comparison
    # ------------------------------------------------------------------
    def compare(self, campaign_a: str, campaign_b: str
                ) -> Dict[str, Any]:
        """Diff two campaigns' per-job final metric families.

        Every job of both campaigns is named (``jobs``), and each
        metric family that appears in either campaign's final
        expositions gets an ``{a, b, delta, ratio}`` entry summing the
        family across the campaign's jobs — the "did this change
        regress X?" primitive.  Families only one side has land in
        ``only_a``/``only_b``.

        When either campaign carries ``profile`` records (continuous
        profiling summaries shipped by fleet workers) the result also
        gains a ``profile`` section: per-layer ``{a, b, delta, ratio}``
        seconds plus the functions whose self time moved most — the
        per-layer overhead regression primitive.
        """
        sides = {}
        for key, campaign_id in (("a", campaign_a), ("b", campaign_b)):
            jobs = self.jobs(campaign_id)
            totals: Dict[str, float] = {}
            job_rows = []
            for record in jobs:
                payload = record["payload"]
                job_rows.append({
                    "job_id": record["name"],
                    "state": payload.get("state"),
                    "attempt": payload.get("attempt"),
                    "worker_id": payload.get("worker_id"),
                    "retries": payload.get("retries", 0),
                })
                families = parse_exposition(
                    payload.get("metrics_text") or "")
                for family_name in families:
                    total, _ = family_total(families, family_name)
                    totals[family_name] = (totals.get(family_name, 0.0)
                                           + total)
            sides[key] = {"campaign_id": campaign_id, "jobs": job_rows,
                          "totals": totals}
        totals_a = sides["a"]["totals"]
        totals_b = sides["b"]["totals"]
        families = {}
        for family_name in sorted(set(totals_a) | set(totals_b)):
            a = totals_a.get(family_name)
            b = totals_b.get(family_name)
            entry: Dict[str, Any] = {"a": a, "b": b}
            if a is not None and b is not None:
                entry["delta"] = b - a
                entry["ratio"] = (b / a) if a else None
            families[family_name] = entry
        result = {
            "a": {"campaign_id": campaign_a,
                  "jobs": sides["a"]["jobs"]},
            "b": {"campaign_id": campaign_b,
                  "jobs": sides["b"]["jobs"]},
            "families": families,
            "only_a": sorted(set(totals_a) - set(totals_b)),
            "only_b": sorted(set(totals_b) - set(totals_a)),
        }
        profile = self._compare_profiles(campaign_a, campaign_b)
        if profile is not None:
            result["profile"] = profile
        return result

    def _compare_profiles(self, campaign_a: str, campaign_b: str
                          ) -> Optional[Dict[str, Any]]:
        """Per-layer/per-function diff of the campaigns' profile
        records, or None when neither side recorded any."""
        from ..profile import diff_summaries, merge_summaries
        merged = {}
        counts = {}
        for key, campaign_id in (("a", campaign_a), ("b", campaign_b)):
            summaries = [record["payload"].get("summary") or {}
                         for record in self._latest(campaign_id,
                                                    "profile")]
            summaries = [s for s in summaries if s]
            counts[key] = len(summaries)
            merged[key] = merge_summaries(summaries) if summaries else None
        if merged["a"] is None and merged["b"] is None:
            return None
        diff = diff_summaries(merged["a"] or {}, merged["b"] or {})
        diff["jobs_profiled"] = counts
        return diff

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def prune(self, policies: Iterable[RetentionPolicy],
              now: Optional[float] = None) -> Dict[str, int]:
        """Delete exactly the out-of-policy rows; returns deletions per
        kind.  ``repro historian prune`` runs it."""
        now = time.time() if now is None else now
        deleted: Dict[str, int] = {}
        with self._lock:
            self.flush()
            if self._conn is None:
                return deleted
            for policy in policies:
                count = 0
                try:
                    if policy.max_age is not None:
                        cursor = self._conn.execute(
                            "DELETE FROM records WHERE kind = ?"
                            " AND wall < ?",
                            (policy.kind, now - policy.max_age))
                        count += cursor.rowcount
                    if policy.max_count is not None:
                        cursor = self._conn.execute(
                            "DELETE FROM records WHERE kind = ?"
                            " AND id NOT IN (SELECT id FROM records"
                            "  WHERE kind = ? ORDER BY id DESC"
                            "  LIMIT ?)",
                            (policy.kind, policy.kind,
                             int(policy.max_count)))
                        count += cursor.rowcount
                    self._conn.commit()
                except sqlite3.Error as exc:
                    self.damage.degraded = True
                    self.damage.note(exc)
                    continue
                if count:
                    deleted[policy.kind] = (deleted.get(policy.kind, 0)
                                            + count)
        return deleted
