"""Trace exporters: JSONL and Chrome/Perfetto ``trace_event`` format.

The Perfetto document opens directly in https://ui.perfetto.dev (or
``chrome://tracing``): one thread track per component showing its
message hops as thin slices connected by flow arrows, and its annotated
tasks (workgroups, cache misses, RDMA transfers) as async spans.

Time base: the exporter maps **1 simulated nanosecond to 1 displayed
microsecond** (``ts = time * 1e9``).  GPU events are nanosecond-scale
and the trace_event format's ``ts`` field is microseconds with limited
sub-microsecond resolution, so the 1000x stretch keeps single-cycle
events visible.  Read the UI's "µs" as simulated ns.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.atomicio import atomic_write_text
from .events import TraceEvent, TraceKind

#: Simulated seconds -> exported ``ts`` units (see module docstring).
TS_SCALE = 1e9

#: Duration given to instantaneous port events so they render as
#: visible slices (in ``ts`` units — 0.1 simulated ns).
_HOP_DUR = 0.1


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(events: Iterable[TraceEvent], path) -> Path:
    """One JSON object per line; the streaming-friendly archive format.

    Rendered in memory, written atomically: an event source raising
    mid-iteration (a store read hitting damage) leaves no partial
    file for a downstream reader to trip over."""
    target = Path(path)
    buffer = io.StringIO()
    for ev in events:
        buffer.write(json.dumps(ev.to_dict()) + "\n")
    atomic_write_text(target, buffer.getvalue())
    return target


def read_jsonl(path) -> List[TraceEvent]:
    """Load events written by :func:`write_jsonl`."""
    events = []
    with Path(path).open() as f:
        for line in f:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Perfetto / Chrome trace_event
# ----------------------------------------------------------------------
def to_perfetto(events: Sequence[TraceEvent]) -> Dict[str, Any]:
    """Build a ``trace_event`` JSON document from *events*."""
    pid = 1
    tids: Dict[str, int] = {}
    out: List[Dict[str, Any]] = [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": "repro.trace"},
    }]

    def tid_of(component: str) -> int:
        tid = tids.get(component)
        if tid is None:
            tid = len(tids) + 1
            tids[component] = tid
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_name",
                        "args": {"name": component or "(unowned)"}})
        return tid

    #: msg_id -> send record, for flow arrows send -> deliver.
    flow_ids: Dict[int, int] = {}
    next_flow = 1

    for ev in events:
        tid = tid_of(ev.component)
        ts = ev.time * TS_SCALE
        if ev.kind in TraceKind.MESSAGE:
            name = f"{ev.kind} {ev.msg_type}#{ev.msg_id}"
            args = {"port": ev.what, "src": ev.src, "dst": ev.dst,
                    "msg_id": ev.msg_id, "seq": ev.seq}
            if ev.extra:
                args["detail"] = ev.extra
            out.append({"ph": "X", "pid": pid, "tid": tid, "ts": ts,
                        "dur": _HOP_DUR, "name": name,
                        "cat": ev.kind, "args": args})
            # Flow arrow from the send slice to the deliver/drop slice.
            if ev.kind == TraceKind.SEND and ev.msg_id is not None:
                flow_ids[ev.msg_id] = next_flow
                out.append({"ph": "s", "pid": pid, "tid": tid, "ts": ts,
                            "id": next_flow, "name": "hop",
                            "cat": "msg"})
                next_flow += 1
            elif ev.kind in (TraceKind.DELIVER, TraceKind.DROP):
                flow = flow_ids.pop(ev.msg_id, None)
                if flow is not None:
                    out.append({"ph": "f", "bp": "e", "pid": pid,
                                "tid": tid, "ts": ts, "id": flow,
                                "name": "hop", "cat": "msg"})
        elif ev.kind == TraceKind.TASK_BEGIN:
            out.append({"ph": "b", "pid": pid, "tid": tid, "ts": ts,
                        "id": f"{ev.component}:{ev.extra}",
                        "cat": ev.msg_type or "task",
                        "name": ev.what or ev.msg_type or "task",
                        "args": {"task_id": ev.extra, "seq": ev.seq}})
        elif ev.kind == TraceKind.TASK_END:
            out.append({"ph": "e", "pid": pid, "tid": tid, "ts": ts,
                        "id": f"{ev.component}:{ev.extra}",
                        "cat": ev.msg_type or "task",
                        "name": ev.what or ev.msg_type or "task"})
    return {
        "traceEvents": out,
        "displayTimeUnit": "ns",
        "otherData": {
            "source": "repro.trace",
            "time_base": "1 displayed us = 1 simulated ns",
        },
    }


def write_perfetto(events: Sequence[TraceEvent], path) -> Path:
    """Write the Perfetto JSON document for *events* to *path*
    (atomically — the document is built before the target is touched).
    """
    target = Path(path)
    atomic_write_text(target, json.dumps(to_perfetto(events)))
    return target


EXPORT_FORMATS = ("jsonl", "perfetto")


def export_events(events: Sequence[TraceEvent], fmt: str,
                  path: Optional[str] = None):
    """Dispatch: export *events* as *fmt*.

    With *path*, writes the file and returns its :class:`Path`.
    Without, returns the in-memory document (a list of dicts for
    ``jsonl``, the trace document dict for ``perfetto``).
    """
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"format must be one of {EXPORT_FORMATS}, "
                         f"got {fmt!r}")
    if fmt == "jsonl":
        if path is None:
            return [ev.to_dict() for ev in events]
        return write_jsonl(events, path)
    if path is None:
        return to_perfetto(events)
    return write_perfetto(events, path)
