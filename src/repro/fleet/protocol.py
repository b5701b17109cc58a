"""The fleet control channel: line-framed JSON over worker stdio.

Both directions use the same framing.  **Commands** travel manager →
worker on stdin as bare JSON lines (the manager is the only writer, so
no prefix is needed)::

    {"cmd": "run", "spec": {...}, "attempt": 0}
    {"cmd": "shutdown"}

**Events** travel worker → manager on stdout, each line prefixed
``@fleet `` so they coexist with ordinary logging::

    @fleet {"event": "ready", "worker_id": "w1", "url": ...}
    @fleet {"event": "started", "job_id": "fir-c1", "attempt": 0}
    @fleet {"event": "progress", "job_id": ..., "sim_time": ..., ...}
    @fleet {"event": "final-metrics", "job_id": ..., "metrics_text": ...}
    @fleet {"event": "done" | "failed", "job_id": ..., ...}

Framing is the weak point of any stdout protocol: a worker dying
mid-write leaves a torn line, a stray ``print`` from deep inside a
simulation can land *without* a trailing newline and glue itself onto
the next control line, and the OS delivers pipe traffic in arbitrary
chunk boundaries.  :class:`FrameDecoder` is the defensive reader every
:class:`~repro.fleet.channel.WorkerChannel` uses: feed it raw byte
chunks as they arrive and it yields only complete, parseable control
events, tolerating

* chunks that split a line (even mid-UTF-8-sequence),
* interleaved non-``@fleet`` stdout (ignored),
* garbage glued in front of a control prefix (recovered by scanning
  for the prefix inside the line),
* torn/unparseable JSON (dropped, counted in :attr:`errors`),
* unbounded garbage lines (buffer capped; oversized lines dropped).

On the worker side, :func:`emit` serializes writes under a process-wide
lock: events can be emitted from the job thread, the progress thread
and signal-adjacent teardown paths, and a ``final-metrics`` event
carrying a 30 KB exposition far exceeds the pipe's atomic-write
guarantee (``PIPE_BUF``), so without the lock two threads could
interleave and corrupt both frames.
"""

from __future__ import annotations

import codecs
import json
import sys
import threading
from typing import Any, Dict, List, Optional

__all__ = ["CONTROL_PREFIX", "FrameDecoder", "emit",
           "encode_command", "decode_command", "split_batches"]

#: Marker distinguishing control-channel lines from ordinary stdout.
CONTROL_PREFIX = "@fleet "

#: A single buffered line larger than this is garbage, not a frame
#: (the largest legitimate frame — a final exposition — is ~100 KB).
_MAX_LINE_BYTES = 8 * 1024 * 1024

_EMIT_LOCK = threading.Lock()


def emit(payload: Dict[str, Any], stream=None) -> None:
    """Write one control-channel event line, atomically and flushed.

    Flushed because the manager reads the pipe live (a buffered
    ``ready`` event would stall dispatch); locked because concurrent
    emitters (job thread + progress thread) would otherwise interleave
    inside one kernel write when the frame exceeds ``PIPE_BUF``.
    """
    line = CONTROL_PREFIX + json.dumps(payload) + "\n"
    out = stream if stream is not None else sys.stdout
    with _EMIT_LOCK:
        out.write(line)
        out.flush()


def encode_command(payload: Dict[str, Any]) -> bytes:
    """One manager → worker command line, ready for a binary pipe."""
    return (json.dumps(payload) + "\n").encode("utf-8")


def decode_command(line: str) -> Optional[Dict[str, Any]]:
    """Parse one stdin line into a command; ``None`` for blank or
    unparseable input (a worker must never die because its manager —
    or a human driving it interactively — typed something odd)."""
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    return payload if isinstance(payload, dict) else None


#: Sender-side batch budget: stay well under the decoder's line cap so
#: one frame (items + envelope + prefix) can never trip it.
_MAX_BATCH_BYTES = 1 * 1024 * 1024


def split_batches(items: List[Any],
                  max_bytes: int = _MAX_BATCH_BYTES) -> List[List[Any]]:
    """Split *items* into chunks whose JSON encoding stays under
    *max_bytes* each.

    The decoder drops any buffered line above its 8 MB cap — silently
    losing *every* item in an oversized frame.  Senders of unbounded
    batches (a shard's boundary-message outbox can hold thousands of
    encoded messages in a hot window) must therefore split *before*
    framing.  A single item larger than the budget still travels as its
    own chunk: splitting cannot shrink it, and the budget's headroom
    under the line cap absorbs any realistic single message.
    """
    if max_bytes <= 0:
        raise ValueError("max_bytes must be positive")
    batches: List[List[Any]] = []
    current: List[Any] = []
    current_bytes = 2  # the enclosing "[]"
    for item in items:
        size = len(json.dumps(item)) + 2  # ", " separator headroom
        if current and current_bytes + size > max_bytes:
            batches.append(current)
            current = []
            current_bytes = 2
        current.append(item)
        current_bytes += size
    if current:
        batches.append(current)
    return batches


class FrameDecoder:
    """Incremental, damage-tolerant decoder for the event channel.

    Feed raw byte chunks in arrival order; :meth:`feed` returns the
    complete control events they finish.  Partial lines (and partial
    UTF-8 sequences) wait in the buffer for the next chunk.
    """

    def __init__(self) -> None:
        self._decoder = codecs.getincrementaldecoder("utf-8")("replace")
        self._buffer = ""
        #: Torn or unparseable control frames seen (observability:
        #: a worker post-mortem quotes this).
        self.errors = 0
        #: Non-control stdout lines seen (ordinary worker logging).
        self.noise = 0
        #: Buffered lines dropped for exceeding the 8 MB cap.  Each one
        #: is a whole lost frame — a sender that trips this is shipping
        #: unsplit batches (see :func:`split_batches`) and the loss must
        #: be visible, not silent.
        self.oversized = 0

    def feed(self, chunk: bytes) -> List[Dict[str, Any]]:
        """Decode *chunk*; return every event it completes."""
        self._buffer += self._decoder.decode(chunk)
        events: List[Dict[str, Any]] = []
        while True:
            line, sep, rest = self._buffer.partition("\n")
            if not sep:
                if len(self._buffer) > _MAX_LINE_BYTES:
                    # Runaway garbage (a worker spewing binary with no
                    # newlines) must not balloon the manager's memory.
                    self._buffer = ""
                    self.errors += 1
                    self.oversized += 1
                break
            self._buffer = rest
            event = self._parse_line(line)
            if event is not None:
                events.append(event)
        return events

    def flush(self) -> List[Dict[str, Any]]:
        """EOF: a trailing unterminated line is by definition torn —
        the worker died mid-write — so it is counted, never parsed as
        if it were complete."""
        leftover, self._buffer = self._buffer, ""
        leftover += self._decoder.decode(b"", final=True)
        if leftover.strip():
            self.errors += 1 if CONTROL_PREFIX in leftover else 0
            if CONTROL_PREFIX not in leftover:
                self.noise += 1
        return []

    # ------------------------------------------------------------------
    def _parse_line(self, line: str) -> Optional[Dict[str, Any]]:
        line = line.rstrip("\r")
        if not line:
            return None
        if not line.startswith(CONTROL_PREFIX):
            # A print() without a trailing newline glues its text onto
            # the next frame: "no newline here@fleet {...}".  Recover
            # by scanning for the prefix mid-line.
            index = line.find(CONTROL_PREFIX)
            if index < 0:
                self.noise += 1
                return None
            self.noise += 1
            line = line[index:]
        try:
            payload = json.loads(line[len(CONTROL_PREFIX):])
        except json.JSONDecodeError:
            self.errors += 1
            return None
        if not isinstance(payload, dict):
            self.errors += 1
            return None
        return payload
