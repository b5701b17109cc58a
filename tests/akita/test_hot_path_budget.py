"""A perf gate that does not depend on the host: calls per event.

Wall time on a shared CI runner moves by a factor of two between
minutes; the number of function calls the interpreter makes to simulate
one event does not move at all.  This counts every call — Python
functions and C builtins alike, what ``cProfile`` reports as
``total_calls`` — over an unmonitored FIR run and holds it to a
committed budget, so the next one-line wrapper layered onto the
engine → tick → port path fails here instead of waiting for a benchmark
run to notice.

History (bare FIR, small two-chiplet platform), calls per event before
and after the hot path was flattened: 45.35 → 26.21 on the 256-sample
run measured here, 47.60 → 27.43 at the benchmark's 4096 samples
(``PYTHONPATH=src python -m tests.counts`` prints both, with every
other count); then 26.21 → 19.18 (27.43 → 20.24) when a tick began to
reschedule itself in place, ports and connections stopped calling wake-ups that could change
nothing, and ``gpu`` read the clock and its ports' queues without a
frame; then 19.18 → 16.84 (20.24 → 17.94) when a send became one
reserve-or-refuse call on the connection, hot events were built without
an ``__init__`` frame, a wake-up became ``tick_later`` itself and the
caches stopped entering sub-steps whose queue is empty; then 16.84 →
16.45 (17.94 → 17.47) when a send reserved its slot on the destination
buffer instead of in a per-connection table; then 15.83 → 14.11 (16.82
→ 15.10) when every ``gpu`` tick entered only the sub-steps that hold
work, a progressing tick re-pushed the event it was handed, the hot
memory messages were built in one frame and a delivery landed in the
connection's own frame.  Each budget
sits about 10% above what the code reaches.  If a change legitimately
needs more calls, say why in the commit that raises it.

A C call (``len``, ``heappush``) costs far less than a Python frame, so
the mixed count understates a frame saving; the *frames* per event
(``kind == "call"`` only) are gated on their own, 4–10% above what
the code reaches.  History: FIR(256) 10.63 → 7.63 → 6.06, FIR(4096)
11.07 → 8.16 → 6.62, ``Im2Col.scaled(batch=1)`` 10.23 → 7.52 → 5.97,
the small StoreStorm 10.16 → 6.93 → 5.37.

The kernels and their budgets are one table, ``tests/akita/kernels.py``,
shared with the golden-order test.  History of the other two:
``Im2Col.scaled(batch=1)`` 26.13 → 19.39 → 17.45 → 16.91 → 14.56 and
the small StoreStorm 25.35 → 17.97 → 15.37 → 15.04 → 12.79.

The same count over an *instrumented* run (metrics registry attached,
ring tracer recording — rtmbench's ``instrumented`` workload) gates the
recording path: what recording adds per event, on top of the bare
count.  History: 11.52 → 4.51 at 256 samples (11.83 → 4.57 at 4096)
when component hooks became positional and a trace record one frame;
unchanged when ``PORT_SEND`` moved from the port into the connection;
4.51 → 3.33 (4.57 → 3.45) when buffer occupancy became a count the
port keeps, read at scrape time, instead of a metrics callback per
delivery.

Calls are not the whole price of recording: a record that stays alive
as a tracked object makes the cyclic garbage collector run.
``gc_collections@<bare|instrumented>/fir4096`` counts the collections
(every generation) one FIR(4096) run sets off with the collector
enabled, and recording must add none.  History: 5 bare against 44
recorded while the ring held one tuple per record, 5 against 5 once it
kept the fields flat.
"""

import functools
import gc

import pytest

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from tests.akita.kernels import KERNELS
from tests.call_counter import count_calls


def _platform(make, instrumented):
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    make().enqueue(platform.driver)
    if instrumented:
        monitor = Monitor(platform.simulation)
        monitor.ensure_sim_metrics().start()
        monitor.ensure_tracer(backend="ring").start()
    return platform


def counts_per_event(make, instrumented=False):
    """``(calls, Python frames)`` per simulated event of one run of the
    workload *make* builds."""
    platform = _platform(make, instrumented)
    frames, c_calls, completed = count_calls(platform.run)
    assert completed
    events = platform.engine.event_count
    return (frames + c_calls) / events, frames / events


def gc_collections(make, instrumented=False):
    """Cyclic collections, every generation summed, that one run of the
    workload *make* builds sets off: the collector enabled, as in any
    run, and started from an empty young generation."""
    platform = _platform(make, instrumented)
    gc.collect()
    before = sum(gen["collections"] for gen in gc.get_stats())
    assert platform.run()
    return sum(gen["collections"] for gen in gc.get_stats()) - before


@functools.cache
def measure():
    """``calls_per_event@bare/<kernel>``, ``frames_per_event@<kernel>``
    and, where recording has a budget,
    ``calls_per_event@instrumented/<kernel>``; and
    ``gc_collections@bare|instrumented/fir4096``."""
    counts = {}
    for name, kernel in KERNELS.items():
        calls, frames = counts_per_event(kernel.make)
        counts[f"calls_per_event@bare/{name}"] = calls
        counts[f"frames_per_event@{name}"] = frames
        if kernel.recording is not None:
            counts[f"calls_per_event@instrumented/{name}"] = \
                counts_per_event(kernel.make, instrumented=True)[0]
    for mode in ("bare", "instrumented"):
        counts[f"gc_collections@{mode}/fir4096"] = gc_collections(
            KERNELS["fir4096"].make, mode == "instrumented")
    return counts


def _within_call_budget(name):
    measured = measure()[f"calls_per_event@bare/{name}"]
    assert measured == counts_per_event(KERNELS[name].make)[0], \
        "the count must repeat exactly"
    budget = KERNELS[name].calls
    assert measured <= budget, (
        f"{name}: {measured:.2f} calls per simulated event, budget "
        f"{budget}: something on the engine/tick/port path gained a layer")


def test_bare_fir_stays_inside_the_call_budget():
    _within_call_budget("fir256")


@pytest.mark.parametrize("kernel", sorted(set(KERNELS) - {"fir256"}))
def test_other_kernels_stay_inside_their_call_budget(kernel):
    _within_call_budget(kernel)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_python_frames_per_event_stay_inside_their_budget(kernel):
    measured = measure()[f"frames_per_event@{kernel}"]
    budget = KERNELS[kernel].frames
    assert measured <= budget, (
        f"{kernel}: {measured:.2f} Python frames per simulated event, "
        f"budget {budget}: a message hop or a tick gained a frame")


def test_recording_stays_inside_the_call_budget():
    counts = measure()
    for name, kernel in KERNELS.items():
        if kernel.recording is None:
            continue
        measured = counts[f"calls_per_event@instrumented/{name}"]
        assert measured == counts_per_event(kernel.make, True)[0], \
            "the count must repeat exactly"
        adds = measured - counts[f"calls_per_event@bare/{name}"]
        assert adds <= kernel.recording, (
            f"{name}: recording adds {adds:.2f} calls per simulated "
            f"event, budget {kernel.recording}: something between a "
            "firing site and the ring gained a frame")


def test_recording_sets_off_no_collection():
    """A record leaves nothing the cyclic collector tracks: the ring
    keeps its fields flat and the tuple a hook builds dies with the
    call, so a recorded run collects as often as the bare one."""
    counts = measure()
    recorded = counts["gc_collections@instrumented/fir4096"]
    bare = counts["gc_collections@bare/fir4096"]
    assert recorded <= bare, (
        f"FIR(4096): {recorded} collections recorded, {bare} bare: "
        "recording leaves objects the garbage collector tracks")
