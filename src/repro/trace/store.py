"""Trace storage backends.

Two implementations behind one API:

* :class:`RingStore` — a bounded in-memory ring.  Appends are O(1) and
  allocation-free beyond the event object itself; the oldest events
  fall off when the ring is full (``dropped`` counts them).  What the
  tracer records stays a raw tuple (see :mod:`.events`) until a reader
  asks for it: a query formats only the rows it returns.  This is the
  always-on default: a crashed or hung run still holds its last N
  events for the watchdog post-mortem.
* :class:`SQLiteStore` — a durable on-disk store in WAL mode.  Appends
  are buffered and written with ``executemany`` once per *batch* (or
  per wall-clock flush interval), so per-event cost stays near the
  ring's.  Queries flush first, so readers always see a consistent
  prefix.

Both take writes through the same two doors — ``put(record)`` for a
finished raw record whose first field the writer minted with
``store.seq()`` (the tracer, on the simulation thread), and
``append(event)`` for a :class:`TraceEvent`, numbered from the same
sequence — and support the same filtered query: component-name regex,
kind set, virtual-time window, message id, bounded to the most recent
*limit* matches.
"""

from __future__ import annotations

import itertools
import re
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

from .events import FIELDS, TraceEvent, record_names

#: ``limit=0`` means "no limit" in the query API.
NO_LIMIT = 0


def _compile(pattern: Optional[str]) -> Optional["re.Pattern"]:
    return re.compile(pattern) if pattern else None


class TraceStore:
    """Base class: sequence numbering + the query contract."""

    backend = "base"

    def __init__(self) -> None:
        #: Mints the next sequence number.  One atomic C call on an
        #: ``itertools.count`` (the ``EventQueue`` idiom): writers on
        #: any thread never share a number, and nothing but a write
        #: ever takes one.
        self.seq = itertools.count().__next__

    @property
    def recorded(self) -> int:
        """Total events ever written to this store object."""
        raise NotImplementedError

    # -- writing -----------------------------------------------------------
    def append(self, event: TraceEvent) -> TraceEvent:
        """Assign the next sequence number and persist *event*."""
        event.seq = self.seq()
        self._store(event)
        return event

    def put(self, record: tuple) -> None:
        """Persist one raw record (:data:`.events.RECORD_FIELDS`) whose
        ``seq`` the caller took from :attr:`seq`: the tracer's entry
        point, called on the simulation thread."""
        raise NotImplementedError

    def _store(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Make all appended events visible to queries."""

    def close(self) -> None:
        self.flush()

    def clear(self) -> None:
        raise NotImplementedError

    # -- reading -----------------------------------------------------------
    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def dropped(self) -> int:
        """Events lost to capacity bounds (0 for durable backends)."""
        return 0

    def tail(self, n: int) -> List[TraceEvent]:
        """The most recent *n* events, oldest first."""
        return self.query(limit=n)

    def query(self, component: Optional[str] = None,
              kind: Optional[Iterable[str]] = None,
              t0: Optional[float] = None, t1: Optional[float] = None,
              msg_id: Optional[int] = None,
              limit: int = 1000) -> List[TraceEvent]:
        """Filtered events, oldest first.

        Parameters
        ----------
        component:
            Regex searched against both the component name and the
            port/task label (``what``).
        kind:
            Event kind, or iterable of kinds, to keep.
        t0, t1:
            Inclusive virtual-time window.
        msg_id:
            Keep only this message's lifecycle events.
        limit:
            Keep the most recent *limit* matches (``0`` = all).
        """
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "events": len(self),
            "recorded": self.recorded,
            "dropped": self.dropped,
        }


def _normalize_kinds(kind) -> Optional[frozenset]:
    if kind is None:
        return None
    if isinstance(kind, str):
        return frozenset((kind,))
    return frozenset(kind)


class RingStore(TraceStore):
    """Bounded in-memory store (the always-on default)."""

    backend = "ring"

    def __init__(self, capacity: int = 65536):
        super().__init__()
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        # Holds appended events and, from the tracer, raw records.
        self._ring: Deque[Any] = deque(maxlen=self.capacity)
        # Either kind of write *is* the deque's append: no frame of
        # this module stands between the tracer's hook and the ring.
        self.put = self._store = self._ring.append
        self._cleared_at = 0  # ``recorded`` when the ring was last emptied

    @property
    def recorded(self) -> int:
        # Numbering starts at 0, so the newest entry's seq says how
        # many were written; reading it takes no sequence number.
        try:
            newest = self._ring[-1]
        except IndexError:
            return self._cleared_at
        return (newest[0] if type(newest) is tuple else newest.seq) + 1

    def clear(self) -> None:
        self._cleared_at = self.recorded
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        return self.recorded - len(self._ring)

    def tail(self, n: int) -> List[TraceEvent]:
        return self.query(limit=n) if n > 0 else []

    def query(self, component: Optional[str] = None,
              kind: Optional[Iterable[str]] = None,
              t0: Optional[float] = None, t1: Optional[float] = None,
              msg_id: Optional[int] = None,
              limit: int = 1000) -> List[TraceEvent]:
        component_re = _compile(component)
        kinds = _normalize_kinds(kind)
        matches: List[TraceEvent] = []
        # Snapshot first: the simulation thread may append concurrently.
        # Newest first, so a bounded query stops at its limit and
        # formats nothing older.
        for item in reversed(list(self._ring)):
            raw = type(item) is tuple
            if raw:
                time, ev_kind, ev_msg_id = item[1], item[2], item[5]
            else:
                time, ev_kind, ev_msg_id = item.time, item.kind, item.msg_id
            if kinds is not None and ev_kind not in kinds:
                continue
            if msg_id is not None and ev_msg_id != msg_id:
                continue
            if t0 is not None and time < t0:
                continue
            if t1 is not None and time > t1:
                continue
            if component_re is not None:
                names = record_names(item) if raw \
                    else (item.component, item.what)
                if not (component_re.search(names[0])
                        or component_re.search(names[1])):
                    continue
            matches.append(TraceEvent.from_record(item) if raw else item)
            if len(matches) == limit:
                break
        matches.reverse()
        return matches

    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data["capacity"] = self.capacity
        return data


_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS events (
    seq INTEGER PRIMARY KEY,
    time REAL NOT NULL,
    kind TEXT NOT NULL,
    component TEXT NOT NULL,
    what TEXT,
    msg_id INTEGER,
    msg_type TEXT,
    src TEXT,
    dst TEXT,
    extra TEXT
);
CREATE INDEX IF NOT EXISTS idx_events_msg ON events (msg_id);
CREATE INDEX IF NOT EXISTS idx_events_time ON events (time);
CREATE INDEX IF NOT EXISTS idx_events_kind ON events (kind);
"""

_INSERT = (f"INSERT OR REPLACE INTO events ({', '.join(FIELDS)}) "
           f"VALUES ({', '.join('?' * len(FIELDS))})")


class SQLiteStore(TraceStore):
    """Durable on-disk store: WAL mode, batched inserts.

    Appends land in an in-memory pending list and are flushed with one
    ``executemany`` when the batch fills or ``flush_interval`` wall
    seconds have passed — the per-event hot path is a list append.
    The connection is shared across threads (simulation thread writes,
    HTTP server threads query) behind one lock.
    """

    backend = "sqlite"

    def __init__(self, path: str, flush_interval: float = 0.25):
        super().__init__()
        self.path = str(path)
        #: Pending rows that force a flush.
        self.batch_size = 512
        self.flush_interval = float(flush_interval)
        self._pending: List[tuple] = []
        self._recorded = 0
        self._last_flush = time.monotonic()
        self._lock = threading.RLock()
        import sqlite3  # here, not at module top: the ring never pays
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.commit()
        # Resume numbering after an existing file.
        row = self._conn.execute("SELECT MAX(seq) FROM events").fetchone()
        if row and row[0] is not None:
            self.seq = itertools.count(row[0] + 1).__next__

    @property
    def recorded(self) -> int:
        return self._recorded

    def put(self, record: tuple) -> None:
        self._store(TraceEvent.from_record(record))

    def _store(self, event: TraceEvent) -> None:
        row = event.to_row()
        # flush() swaps ``_pending`` under this lock.  Outside it, a
        # reader's flush landing between "which list" and "append"
        # (inside to_row(), say) writes the old list out and the row
        # goes into it afterwards, never to be written.
        with self._lock:
            self._recorded += 1
            self._pending.append(row)
            if (len(self._pending) >= self.batch_size
                    or time.monotonic() - self._last_flush
                    >= self.flush_interval):
                self.flush()

    def flush(self) -> None:
        with self._lock:
            if not self._pending:
                self._last_flush = time.monotonic()
                return
            batch, self._pending = self._pending, []
            self._conn.executemany(_INSERT, batch)
            self._conn.commit()
            self._last_flush = time.monotonic()

    def close(self) -> None:
        with self._lock:
            self.flush()
            self._conn.close()

    def clear(self) -> None:
        with self._lock:
            self._pending.clear()
            self._conn.execute("DELETE FROM events")
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM events").fetchone()
            return row[0] + len(self._pending)

    def query(self, component: Optional[str] = None,
              kind: Optional[Iterable[str]] = None,
              t0: Optional[float] = None, t1: Optional[float] = None,
              msg_id: Optional[int] = None,
              limit: int = 1000) -> List[TraceEvent]:
        self.flush()
        clauses: List[str] = []
        args: List[Any] = []
        kinds = _normalize_kinds(kind)
        if kinds is not None:
            clauses.append(
                f"kind IN ({', '.join('?' * len(kinds))})")
            args.extend(sorted(kinds))
        if msg_id is not None:
            clauses.append("msg_id = ?")
            args.append(msg_id)
        if t0 is not None:
            clauses.append("time >= ?")
            args.append(t0)
        if t1 is not None:
            clauses.append("time <= ?")
            args.append(t1)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        sql = (f"SELECT {', '.join(FIELDS)} FROM events {where} "
               f"ORDER BY seq")
        with self._lock:
            rows = self._conn.execute(sql, args).fetchall()
        events = [TraceEvent.from_row(row) for row in rows]
        component_re = _compile(component)
        if component_re is not None:
            events = [ev for ev in events
                      if component_re.search(ev.component)
                      or component_re.search(ev.what)]
        if limit and limit != NO_LIMIT:
            events = events[-limit:]
        return events

    def stats(self) -> Dict[str, Any]:
        data = super().stats()
        data["path"] = self.path
        data["batch_size"] = self.batch_size
        return data
