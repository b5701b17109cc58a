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
(``python tests/akita/test_hot_path_budget.py`` prints both); then
26.21 → 19.18 (27.43 → 20.24) when a tick began to reschedule itself in
place, ports and connections stopped calling wake-ups that could change
nothing, and ``gpu`` read the clock and its ports' queues without a
frame.  Each budget sits about 10% above what the code reaches.  If a
change legitimately needs more calls, say why in the commit that raises
it.

FIR is mostly CU → ROB → L1 → L2 traffic on one chiplet, so the same
count is held for the golden-order test's other two kernels:
``Im2Col.scaled(batch=1)`` (RDMA and switch heavy; 26.13 → 19.39) and
the small StoreStorm (write path, write buffers, DRAM; 25.35 → 17.97).

The same count over an *instrumented* run (metrics registry attached,
ring tracer recording — rtmbench's ``instrumented`` workload) gates the
recording path: what recording adds per event, on top of the bare
count.  History: 11.52 → 4.51 at 256 samples (11.83 → 4.57 at 4096)
when component hooks became positional and a trace record one frame.
"""

import gc
import sys

import pytest

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR, Im2Col, StoreStorm

CALLS_PER_EVENT_BUDGET = 21.0
RECORDING_CALLS_PER_EVENT_BUDGET = 5.0
#: The other two bench kernels: name -> (workload factory, budget).
OTHER_KERNELS = {
    "im2col_batch1": (lambda: Im2Col.scaled(batch=1), 21.3),
    "storestorm_small": (lambda: StoreStorm(
        num_workgroups=4, wavefronts_per_wg=2, stores_per_wavefront=24),
        19.7),
}


def calls_per_event(num_samples=256, instrumented=False, workload=None):
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    (workload or FIR(num_samples=num_samples)).enqueue(platform.driver)
    if instrumented:
        monitor = Monitor(platform.simulation)
        monitor.ensure_sim_metrics().start()
        monitor.ensure_tracer(backend="ring").start()
    calls = 0

    def count(frame, kind, arg):
        nonlocal calls
        if kind == "call" or kind == "c_call":
            calls += 1

    # A cyclic collection landing inside the run would finalize other
    # tests' garbage (suspended wavefront generators, among others) on
    # this thread, under this profile function.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        completed = platform.run()
    finally:
        sys.setprofile(previous)
        gc.enable()
    assert completed
    return calls / platform.engine.event_count


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
    for samples in (256, 4096):
        bare = calls_per_event(samples)
        instrumented = calls_per_event(samples, instrumented=True)
        print(f"FIR({samples}) bare: {bare:.2f} calls per event")
        print(f"FIR({samples}) instrumented: {instrumented:.2f} calls "
              f"per event, recording adds {instrumented - bare:.2f}")
    for kernel, (make, _) in sorted(OTHER_KERNELS.items()):
        print(f"{kernel} bare: "
              f"{calls_per_event(workload=make()):.2f} calls per event")
