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
caches stopped entering sub-steps whose queue is empty.  Each budget
sits about 10% above what the code reaches.  If a change legitimately
needs more calls, say why in the commit that raises it.

A C call (``len``, ``heappush``) costs far less than a Python frame, so
the mixed count understates a frame saving; the *frames* per event
(``kind == "call"`` only) are gated on their own, 4–10% above what
the code reaches.  History: FIR(256) 10.63 → 7.63, FIR(4096) 11.07 →
8.16, ``Im2Col.scaled(batch=1)`` 10.23 → 7.52, the small StoreStorm
10.16 → 6.93.

The kernels and their budgets are one table, ``tests/akita/kernels.py``,
shared with the golden-order test.  History of the other two:
``Im2Col.scaled(batch=1)`` 26.13 → 19.39 → 17.45 and the small
StoreStorm 25.35 → 17.97 → 15.37.

The same count over an *instrumented* run (metrics registry attached,
ring tracer recording — rtmbench's ``instrumented`` workload) gates the
recording path: what recording adds per event, on top of the bare
count.  History: 11.52 → 4.51 at 256 samples (11.83 → 4.57 at 4096)
when component hooks became positional and a trace record one frame;
unchanged when ``PORT_SEND`` moved from the port into the connection;
4.51 → 3.33 (4.57 → 3.45) when buffer occupancy became a count the
port keeps, read at scrape time, instead of a metrics callback per
delivery.
"""

import functools

import pytest

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from tests.akita.kernels import KERNELS
from tests.call_counter import count_calls


def counts_per_event(make, instrumented=False):
    """``(calls, Python frames)`` per simulated event of one run of the
    workload *make* builds."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    make().enqueue(platform.driver)
    if instrumented:
        monitor = Monitor(platform.simulation)
        monitor.ensure_sim_metrics().start()
        monitor.ensure_tracer(backend="ring").start()
    frames, c_calls, completed = count_calls(platform.run)
    assert completed
    events = platform.engine.event_count
    return (frames + c_calls) / events, frames / events


@functools.cache
def measure():
    """``calls_per_event@bare/<kernel>``, ``frames_per_event@<kernel>``
    and, where recording has a budget,
    ``calls_per_event@instrumented/<kernel>``."""
    counts = {}
    for name, kernel in KERNELS.items():
        calls, frames = counts_per_event(kernel.make)
        counts[f"calls_per_event@bare/{name}"] = calls
        counts[f"frames_per_event@{name}"] = frames
        if kernel.recording is not None:
            counts[f"calls_per_event@instrumented/{name}"] = \
                counts_per_event(kernel.make, instrumented=True)[0]
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
