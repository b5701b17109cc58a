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
(``python -m tests.akita.test_hot_path_budget`` prints both); then
26.21 → 19.18 (27.43 → 20.24) when a tick began to reschedule itself in
place, ports and connections stopped calling wake-ups that could change
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

FIR is mostly CU → ROB → L1 → L2 traffic on one chiplet, so the same
count is held for the golden-order test's other two kernels:
``Im2Col.scaled(batch=1)`` (RDMA and switch heavy; 26.13 → 19.39 →
17.45) and the small StoreStorm (write path, write buffers, DRAM;
25.35 → 17.97 → 15.37).

The same count over an *instrumented* run (metrics registry attached,
ring tracer recording — rtmbench's ``instrumented`` workload) gates the
recording path: what recording adds per event, on top of the bare
count.  History: 11.52 → 4.51 at 256 samples (11.83 → 4.57 at 4096)
when component hooks became positional and a trace record one frame;
unchanged when ``PORT_SEND`` moved from the port into the connection.
"""

import pytest

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR, Im2Col, StoreStorm
from tests.call_counter import count_calls

CALLS_PER_EVENT_BUDGET = 18.5
RECORDING_CALLS_PER_EVENT_BUDGET = 5.0
#: The other two bench kernels: name -> (workload factory, budget).
OTHER_KERNELS = {
    "im2col_batch1": (lambda: Im2Col.scaled(batch=1), 19.2),
    "storestorm_small": (lambda: StoreStorm(
        num_workgroups=4, wavefronts_per_wg=2, stores_per_wavefront=24),
        16.9),
}
#: Python frames per bare event: name -> (workload factory, budget).
FRAME_BUDGETS = {
    "fir256": (lambda: FIR(num_samples=256), 8.1),
    "fir4096": (lambda: FIR(num_samples=4096), 8.8),
    "im2col_batch1": (OTHER_KERNELS["im2col_batch1"][0], 7.8),
    "storestorm_small": (OTHER_KERNELS["storestorm_small"][0], 7.6),
}


def counts_per_event(num_samples=256, instrumented=False, workload=None):
    """``(calls, Python frames)`` per simulated event of one run."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    (workload or FIR(num_samples=num_samples)).enqueue(platform.driver)
    if instrumented:
        monitor = Monitor(platform.simulation)
        monitor.ensure_sim_metrics().start()
        monitor.ensure_tracer(backend="ring").start()
    frames, c_calls, completed = count_calls(platform.run)
    assert completed
    events = platform.engine.event_count
    return (frames + c_calls) / events, frames / events


def calls_per_event(num_samples=256, instrumented=False, workload=None):
    return counts_per_event(num_samples, instrumented, workload)[0]


def test_bare_fir_stays_inside_the_call_budget():
    measured = calls_per_event()
    assert measured == calls_per_event(), "the count must repeat exactly"
    assert measured <= CALLS_PER_EVENT_BUDGET, (
        f"{measured:.1f} calls per simulated event, budget "
        f"{CALLS_PER_EVENT_BUDGET}: something on the engine/tick/port "
        "path gained a layer")


@pytest.mark.parametrize("kernel", sorted(OTHER_KERNELS))
def test_other_kernels_stay_inside_their_call_budget(kernel):
    make, budget = OTHER_KERNELS[kernel]
    measured = calls_per_event(workload=make())
    assert measured == calls_per_event(workload=make()), \
        "the count must repeat exactly"
    assert measured <= budget, (
        f"{kernel}: {measured:.1f} calls per simulated event, budget "
        f"{budget}")


@pytest.mark.parametrize("kernel", sorted(FRAME_BUDGETS))
def test_python_frames_per_event_stay_inside_their_budget(kernel):
    make, budget = FRAME_BUDGETS[kernel]
    measured = counts_per_event(workload=make())[1]
    assert measured <= budget, (
        f"{kernel}: {measured:.2f} Python frames per simulated event, "
        f"budget {budget}: a message hop or a tick gained a frame")


def test_recording_stays_inside_the_call_budget():
    bare = calls_per_event()
    measured = calls_per_event(instrumented=True)
    assert measured == calls_per_event(instrumented=True), \
        "the count must repeat exactly"
    assert measured - bare <= RECORDING_CALLS_PER_EVENT_BUDGET, (
        f"recording adds {measured - bare:.2f} calls per simulated "
        f"event, budget {RECORDING_CALLS_PER_EVENT_BUDGET}: something "
        "between a firing site and the ring gained a frame")


if __name__ == "__main__":
    print(f"{'bare run':18s}{'calls/event':>12s}{'frames/event':>14s}"
          f"{'recording adds':>16s}")
    for kernel, (make, _) in sorted(FRAME_BUDGETS.items()):
        calls, frames = counts_per_event(workload=make())
        adds = ""
        if kernel.startswith("fir"):
            adds = counts_per_event(workload=make(),
                                    instrumented=True)[0] - calls
            adds = f"{adds:.2f}"
        print(f"{kernel:18s}{calls:12.2f}{frames:14.2f}{adds:>16s}")
