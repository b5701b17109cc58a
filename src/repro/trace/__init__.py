"""``repro.trace`` — always-on task/message tracing with a queryable
store and Perfetto export.

AkitaRTM (``repro.core``) shows the simulation's *present*; this
subsystem records its *past*.  Every message hop (send / deliver /
retrieve / drop) and every annotated component task (CU workgroups,
cache misses, RDMA transfers) becomes a :class:`TraceEvent` in a
bounded ring buffer or a durable SQLite file, query-able by component
regex, kind, time window or message id, and exportable to JSONL or the
Chrome/Perfetto ``trace_event`` format (opens in ui.perfetto.dev).

Typical usage::

    from repro.trace import Tracer, RingStore
    from repro.gpu import GPUPlatform

    platform = GPUPlatform()
    tracer = Tracer(platform.simulation, RingStore(capacity=100_000))
    tracer.start()
    platform.run()
    tracer.stop()

    hops = tracer.query(component=r"RDMA", kind="deliver")
    print("\\n".join(tracer.path(hops[0].msg_id)))
    from repro.trace import write_perfetto
    write_perfetto(tracer.query(limit=0), "trace.json")

Recording costs nothing when no tracer is attached: every firing site
finds its position's hook chain empty and does nothing, exactly like
the fault injector.  While one is attached the simulation thread only
notes raw records, one Python frame each; events are formatted when
read (see :mod:`repro.trace.events`).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FIELDS": ".events",
    "message_path": ".events",
    "TraceEvent": ".events",
    "TraceKind": ".events",
    "export_events": ".export",
    "EXPORT_FORMATS": ".export",
    "read_jsonl": ".export",
    "to_perfetto": ".export",
    "write_jsonl": ".export",
    "write_perfetto": ".export",
    "NO_LIMIT": ".store",
    "RingStore": ".store",
    "SQLiteStore": ".store",
    "TraceStore": ".store",
    "Tracer": ".tracer",
})
