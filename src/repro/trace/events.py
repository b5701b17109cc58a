"""Trace records and their vocabulary.

A :class:`TraceEvent` is one observed fact about the simulation: a
message crossed a port, a buffer slot filled or drained, a component
started or finished a unit of work.  Events are deliberately flat (all
scalar fields) so the same record round-trips unchanged through the
ring buffer, the SQLite backend, JSONL files and the Perfetto exporter.

The tracer does not build events while the simulation runs.  It notes
each fact as a *raw record* — a flat tuple of numbers and references to
objects that outlive the run anyway (ports, components, message
classes; never the message) — and :meth:`TraceEvent.from_record` turns
a record into an event, names and strings included, when somebody reads
it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class TraceKind:
    """String constants for :attr:`TraceEvent.kind`.

    Plain strings (not an Enum) so events serialize without conversion
    and SQLite rows compare directly.
    """

    SEND = "send"            #: a port successfully sent a message
    DELIVER = "deliver"      #: a message landed in a port's buffer
    RETRIEVE = "retrieve"    #: a component consumed a buffered message
    DROP = "drop"            #: an in-transit message was lost (faults)
    TASK_BEGIN = "task_begin"
    TASK_END = "task_end"

    ALL = (SEND, DELIVER, RETRIEVE, DROP, TASK_BEGIN, TASK_END)
    #: The subset describing message lifecycle (vs. component tasks).
    MESSAGE = (SEND, DELIVER, RETRIEVE, DROP)


_TASK_KINDS = (TraceKind.TASK_BEGIN, TraceKind.TASK_END)

#: Column order shared by the SQLite schema and the JSONL records.
FIELDS = ("seq", "time", "kind", "component", "what", "msg_id",
          "msg_type", "src", "dst", "extra")

#: Layout of a raw record.  ``subject`` is the port (message kinds),
#: connection (drop) or component (task kinds) that saw the fact;
#: ``label`` the task's display label; ``msg_type`` the message class
#: (task kinds: the task kind string); ``src``/``dst`` ports or None;
#: ``size`` the port buffer's fill after a deliver/retrieve, else None;
#: ``link`` the id of the request a message answers (task kinds: the
#: task id), else None.
RECORD_FIELDS = ("seq", "time", "kind", "subject", "label", "msg_id",
                 "msg_type", "src", "dst", "size", "link")


class TraceEvent:
    """One recorded simulation fact.

    Attributes
    ----------
    seq:
        Monotonic sequence number assigned by the store; total order of
        recording (virtual time alone has heavy ties).
    time:
        Virtual time of the event in seconds.
    kind:
        One of :class:`TraceKind`.
    component:
        Hierarchical name of the component (or connection, for drops)
        that observed the event.
    what:
        The port/buffer the event touched, or the task's display label.
    msg_id, msg_type:
        Message identity and class name for message events; ``None``/
        task kind for task events.
    src, dst:
        Source/destination port names of the message (when known).
    extra:
        Free-form detail: buffer occupancy ``"3/8"`` on deliver /
        retrieve, ``"re:<id>"`` linking a response to its request,
        stringified task id on task events.
    """

    __slots__ = FIELDS

    def __init__(self, time: float, kind: str, component: str,
                 what: str = "", msg_id: Optional[int] = None,
                 msg_type: str = "", src: str = "", dst: str = "",
                 extra: str = "", seq: int = -1):
        self.seq = seq
        self.time = time
        self.kind = kind
        self.component = component
        self.what = what
        self.msg_id = msg_id
        self.msg_type = msg_type
        self.src = src
        self.dst = dst
        self.extra = extra

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name) for name in FIELDS}

    def to_row(self) -> Tuple:
        return tuple(getattr(self, name) for name in FIELDS)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceEvent":
        return cls(**{name: data.get(name) for name in FIELDS
                      if name not in ("seq",)},
                   seq=data.get("seq", -1))

    @classmethod
    def from_record(cls, record: Tuple) -> "TraceEvent":
        """Format one raw record (:data:`RECORD_FIELDS`)."""
        seq, time, kind, subject, _, msg_id, msg_type, src, dst, size, \
            link = record
        component, what = record_names(record)
        if kind in _TASK_KINDS:
            return cls(time, kind, component, what, None, msg_type,
                       extra=str(link), seq=seq)
        extra = f"re:{link}" if link is not None else ""
        if size is not None:
            extra = f"{size}/{subject.buf.capacity} {extra}".rstrip()
        return cls(time, kind, component, what, msg_id,
                   msg_type.__name__,
                   src.name if src is not None else "",
                   dst.name if dst is not None else "", extra, seq=seq)

    @classmethod
    def from_row(cls, row: Tuple) -> "TraceEvent":
        seq, time, kind, component, what, msg_id, msg_type, src, dst, \
            extra = row
        return cls(time, kind, component, what, msg_id, msg_type,
                   src or "", dst or "", extra or "", seq=seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_row() == other.to_row()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        subject = f"msg#{self.msg_id}" if self.msg_id is not None \
            else self.what
        return (f"<TraceEvent #{self.seq} t={self.time:g} "
                f"{self.kind} {self.component} {subject}>")


def record_names(record: Tuple) -> Tuple[str, str]:
    """``(component, what)`` of a raw record: the two names a query's
    component regex is searched in, without formatting the rest."""
    kind, subject = record[2], record[3]
    if kind in _TASK_KINDS:
        return subject.name, record[4]
    if kind == TraceKind.DROP:
        return subject.name, subject.name
    owner = subject.component
    return owner.name if owner is not None else "", subject.name


def message_path(events: List[TraceEvent]) -> List[str]:
    """Render a message's recorded hops as human-readable lines.

    *events* should be the (seq-ordered) result of following one
    message id; see :meth:`repro.trace.Tracer.follow`.
    """
    lines: List[str] = []
    for ev in events:
        if ev.kind == TraceKind.SEND:
            lines.append(f"t={ev.time:.4g} sent {ev.msg_type}"
                         f"#{ev.msg_id}: {ev.src} -> {ev.dst}")
        elif ev.kind == TraceKind.DELIVER:
            lines.append(f"t={ev.time:.4g} delivered at {ev.what} "
                         f"(buf {ev.extra})")
        elif ev.kind == TraceKind.RETRIEVE:
            lines.append(f"t={ev.time:.4g} consumed by {ev.component}")
        elif ev.kind == TraceKind.DROP:
            lines.append(f"t={ev.time:.4g} DROPPED in transit on "
                         f"{ev.component} ({ev.src} -> {ev.dst})")
        else:
            lines.append(f"t={ev.time:.4g} {ev.kind} {ev.what}")
    return lines
