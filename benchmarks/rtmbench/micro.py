"""Layer microbenchmarks: each calls one layer's public functions in a
loop in the benchmark process and reports the cost of one call.

They are the same whatever workload is being traced; a change to one
layer should show here first and in the end-to-end metric that
``spec.PER_LAYER`` names second.  Every loop body's result is consumed
inside the timed region.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable, Dict

from repro.akita import Component, DirectConnection, Engine, Event, \
    EventQueue, Msg
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core import Monitor, RTMClient
from repro.fleet import (CONTROL_PREFIX, CampaignJournal, FrameDecoder,
                         replay_journal)
from repro.fleet.protocol import encode_command
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.historian import Historian
from repro.metrics import MetricRegistry, expose, parse_exposition
from repro.trace import RingStore, SQLiteStore, TraceEvent
from repro.workloads import FIR

_clock = time.perf_counter


def _median_of(measure: Callable[[], float], reps: int = 3) -> float:
    return statistics.median(measure() for _ in range(reps))


def _per_call(call: Callable[[], Any], n: int) -> float:
    """Seconds per call of *call*, over *n* calls."""
    start = _clock()
    for _ in range(n):
        call()
    return (_clock() - start) / n


# ----------------------------------------------------------------------
# akita
# ----------------------------------------------------------------------
def _queue_ns(n: int) -> float:
    queue = EventQueue()
    for i in range(1024):
        queue.push(Event(i * 1e-9, None))
    later = [Event((1024 + i) * 1e-9, None) for i in range(n)]
    start = _clock()
    for event in later:
        queue.push(event)
        queue.pop()
    return (_clock() - start) / n * 1e9


class _Reschedule:
    """A handler that does nothing but schedule its next event."""

    def __init__(self, engine: Engine, remaining: int):
        self.engine = engine
        self.remaining = remaining

    def handle(self, event: Event) -> None:
        if self.remaining > 0:
            self.remaining -= 1
            self.engine.schedule(Event(event.time + 1e-9, self))


_CHAINS = 16


def _engine_ns(n: int, hook: bool = False, windows: int = 0) -> float:
    """ns per event of *n* no-op events on 16 interleaved chains."""
    engine = Engine()
    for chain in range(_CHAINS):
        handler = _Reschedule(engine, n // _CHAINS - 1)
        engine.schedule(Event(chain * 1e-11, handler))
    if hook:
        engine.accept_hook(lambda ctx: None)
    end_time = (n // _CHAINS + 1) * 1e-9
    start = _clock()
    if windows:
        for k in range(1, windows + 1):
            engine.run_window(end_time * k / windows)
        engine.finish_windows()
    else:
        engine.run()
    return (_clock() - start) / engine.event_count * 1e9


class _Echo(Component):
    """Retrieves what arrives and, while it has budget, sends one
    message back: two of them play ping-pong over one connection."""

    def __init__(self, name: str, engine: Engine):
        super().__init__(name, engine)
        self.io = self.add_port("IO")
        self.peer = None
        self.remaining = 0

    def notify_recv(self, port) -> None:
        port.retrieve_incoming()
        if self.remaining > 0:
            self.remaining -= 1
            self.io.send(Msg(dst=self.peer))


def _port_ns(n: int) -> float:
    engine = Engine()
    a, b = _Echo("A", engine), _Echo("B", engine)
    connection = DirectConnection("AB", engine)
    connection.plug_in(a.io)
    connection.plug_in(b.io)
    a.peer, b.peer = b.io, a.io
    a.remaining = b.remaining = n // 2
    start = _clock()
    a.io.send(Msg(dst=b.io))
    engine.run()
    return (_clock() - start) / connection.msg_count * 1e9


def akita(n: int) -> Dict[str, float]:
    plain = _median_of(lambda: _engine_ns(n))
    hooked = _median_of(lambda: _engine_ns(n, hook=True))
    return {
        "akita.queue_ns_per_op": _median_of(lambda: _queue_ns(n)),
        "akita.engine_ns_per_event": plain,
        "akita.window_ns_per_event":
            _median_of(lambda: _engine_ns(n, windows=128)),
        "akita.hook_ns_per_event": hooked - plain,
        "akita.port_ns_per_msg": _median_of(lambda: _port_ns(n)),
    }


# ----------------------------------------------------------------------
# core + metrics: a finished, instrumented FIR platform
# ----------------------------------------------------------------------
def core_and_metrics(n: int, fir_samples: int) -> Dict[str, float]:
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_samples=fir_samples).enqueue(platform.driver)
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.ensure_sim_metrics().start()
    platform.run()
    component = monitor.component_names()[len(
        monitor.component_names()) // 2]
    out = {
        "core.overview_us": _per_call(monitor.overview, n) * 1e6,
        "core.progress_us": _per_call(
            lambda: [b.to_dict() for b in monitor.progress_bars()],
            n) * 1e6,
        "core.buffers_us": _per_call(
            lambda: [r.to_dict() for r in
                     monitor.analyzer.snapshot(top=20)],
            max(1, n // 10)) * 1e6,
        "core.component_us": _per_call(
            lambda: monitor.component_detail(component),
            max(1, n // 10)) * 1e6,
    }
    reps = max(3, n // 100)
    text = expose(monitor.metrics)
    out["metrics.exposition_bytes"] = float(len(text.encode()))
    out["metrics.expose_ms"] = _per_call(
        lambda: expose(monitor.metrics), reps) * 1e3
    out["metrics.snapshot_ms"] = _per_call(
        monitor.metrics.snapshot, reps) * 1e3
    out["metrics.parse_ms"] = _per_call(
        lambda: parse_exposition(text), reps) * 1e3
    counter = MetricRegistry().counter(
        "bench_total", "microbenchmark", ("position",)).labels("x")
    out["metrics.counter_inc_ns"] = _per_call(counter.inc, n * 20) * 1e9
    try:
        client = RTMClient(monitor.start_server(), max_retries=0)
        laps = []
        for _ in range(max(10, n // 10)):
            start = _clock()
            client.overview()
            laps.append(_clock() - start)
        out["core.http_floor_ms"] = statistics.median(laps) * 1e3
    finally:
        monitor.stop_server()
    return out


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _trace_event(i: int) -> TraceEvent:
    kind = ("send", "deliver", "retrieve")[i % 3]
    return TraceEvent(i * 1e-9, kind, f"GPU[0].SA[{i % 4}].CU[0]",
                      what="ToMem", msg_id=i, msg_type="ReadReq",
                      src="GPU[0].SA[0].CU[0].ToMem",
                      dst="GPU[0].SA[0].L1V.Top", extra="1/4")


def trace(n: int, workdir: str) -> Dict[str, float]:
    events = [_trace_event(i) for i in range(n * 10)]
    ring = RingStore(capacity=65536)

    def fill() -> float:
        start = _clock()
        for event in events:
            ring.append(event)
        return (_clock() - start) / len(events) * 1e9

    out = {"trace.ring_append_ns": _median_of(fill)}
    out["trace.query_ms"] = _per_call(
        lambda: ring.query(kind="deliver", limit=100), 5) * 1e3
    path = os.path.join(workdir, "trace-micro.db")
    store = SQLiteStore(path)
    try:
        batch = events[:max(100, n // 2)]
        start = _clock()
        for event in batch:
            store.append(event)
        store.flush()
        out["trace.sqlite_append_us"] = \
            (_clock() - start) / len(batch) * 1e6
    finally:
        store.close()
    return out


# ----------------------------------------------------------------------
# checkpoint
# ----------------------------------------------------------------------
def checkpoint(fir_samples: int, workdir: str) -> Dict[str, float]:
    """Save and restore FIR stopped in the middle of its run."""
    def loaded() -> GPUPlatform:
        platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
        FIR(num_samples=fir_samples).enqueue(platform.driver)
        return platform

    reference = loaded()
    reference.run()
    platform = loaded()
    platform.start()
    platform.engine.run_until(reference.engine.now / 2)
    path = os.path.join(workdir, "micro.ckpt")

    def save() -> float:
        start = _clock()
        save_checkpoint(platform, path)
        return (_clock() - start) * 1e3

    def restore() -> float:
        start = _clock()
        load_checkpoint(path, workload=FIR(num_samples=fir_samples))
        return (_clock() - start) * 1e3

    return {"checkpoint.save_ms": _median_of(save),
            "checkpoint.bytes": float(os.path.getsize(path)),
            "checkpoint.restore_ms": _median_of(restore)}


# ----------------------------------------------------------------------
# fleet + historian
# ----------------------------------------------------------------------
def fleet(n: int, workdir: str) -> Dict[str, float]:
    frame = CONTROL_PREFIX.encode() + encode_command(
        {"event": "progress", "job_id": "fir-0", "sim_time": 4.09e-07,
         "events": 4821, "run_state": "running",
         "detail": "x" * 200})
    stream = frame * n

    def framing() -> float:
        decoder = FrameDecoder()
        start = _clock()
        decoded = sum(len(decoder.feed(stream[i:i + 65536]))
                      for i in range(0, len(stream), 65536))
        elapsed = _clock() - start
        assert decoded == n and decoder.errors == 0
        return len(stream) / elapsed / 1e6

    path = os.path.join(workdir, "micro.wal")
    journal = CampaignJournal(path)
    try:
        append_us = _per_call(
            lambda: journal.append("claim", job_id="fir-0",
                                   worker_id="w0", attempt=0), n) * 1e6
    finally:
        journal.close()
    start = _clock()
    replay = replay_journal(path)
    replay_s = _clock() - start
    return {"fleet.frame_mb_per_s": _median_of(framing),
            "fleet.journal_append_us": append_us,
            "fleet.journal_replay_records_per_s":
                replay.records / replay_s}


def historian(n: int, workdir: str) -> Dict[str, float]:
    store = Historian(os.path.join(workdir, "micro-historian.db"))
    try:
        campaign = store.begin_campaign("micro")
        payload = {"state": "completed", "attempt": 0, "worker_id": "w0",
                   "retries": 0, "result": {"run_state": "completed",
                                            "sim_time": 4.09e-07},
                   "metrics_text": "rtm_engine_events_total 4821\n" * 40}
        rows = max(64, n // 4)
        start = _clock()
        for i in range(rows):
            store.record(campaign, "job", payload, name=f"job-{i}")
        store.flush()
        record_us = (_clock() - start) / rows * 1e6
        query_ms = _per_call(
            lambda: store.query(campaign, kind="job"), 3) * 1e3
    finally:
        store.close()
    return {"historian.record_us": record_us,
            "historian.query_ms": query_ms}


def run_all(scale: float, fir_samples: int,
            workdir: str) -> Dict[str, float]:
    """Every microbenchmark; *scale* shrinks the loops for ``--smoke``."""
    n = max(200, int(40000 * scale))
    out: Dict[str, float] = {}
    out.update(akita(n))
    out.update(core_and_metrics(max(50, n // 40), fir_samples))
    out.update(trace(max(100, n // 10), workdir))
    out.update(checkpoint(fir_samples, workdir))
    out.update(fleet(max(100, n // 10), workdir))
    out.update(historian(max(100, n // 10), workdir))
    return out
