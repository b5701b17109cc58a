#!/usr/bin/env python3
"""Trace capture — following a dropped message to the scene of a hang.

A fault campaign can tell you THAT losing RDMA traffic wedges the run;
the tracer tells you WHICH message was lost and what it was doing when
it died.  This example runs FIR on a two-chiplet GPU with the tracer
attached, drops a fraction of inter-chiplet RDMA traffic mid-run, and
— once the simulation wedges — reconstructs the lifecycle of one
dropped message from the ring buffer: the send, the hops it completed,
and the drop that stranded its requester.

The same ring buffer feeds the watchdog's post-mortem (its last-N
``trace_window``), so what this script prints is exactly the evidence
an unattended CI run would have persisted.

Run:  python examples/trace_capture.py [out.jsonl]
"""

import sys

from repro.core import Monitor
from repro.faults import FaultKind, FaultSpec
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.trace import TraceKind, write_jsonl
from repro.workloads import FIR


def main() -> None:
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_samples=2048).enqueue(platform.driver)

    monitor = Monitor.for_platform(platform)

    # Always-on tracing: one ring, hooks attached, nothing else pays.
    tracer = monitor.ensure_tracer(capacity=1 << 18)
    tracer.start()

    # The campaign fault: lose 2% of RDMA traffic after 100ns.
    injector = monitor.ensure_injector(seed=7)
    injector.inject(FaultSpec(FaultKind.DROP, "*RDMA*", start=1e-7,
                              probability=0.02))

    ok = platform.run(hang_wait=0.0)
    monitor.stop_sampler()
    state = "completed" if ok else platform.simulation.run_state
    stats = tracer.store.stats()
    print(f"run {state} at t={platform.simulation.now * 1e6:.2f}us "
          f"with {stats['recorded']:,} trace events recorded")

    drops = tracer.query(kind=TraceKind.DROP, limit=0)
    print(f"messages dropped in transit: {len(drops)}")
    if not drops:
        print("no drops recorded — raise the probability and retry")
        return

    victim = drops[0]
    print(f"\nfirst dropped message: {victim.msg_type}#{victim.msg_id} "
          f"({victim.src} -> {victim.dst}) "
          f"at t={victim.time * 1e9:.2f}ns")
    print("reconstructed path:")
    for line in tracer.path(victim.msg_id):
        print(f"  {line}")

    if len(sys.argv) > 1:
        write_jsonl(tracer.query(limit=0), sys.argv[1])
        print(f"\nfull trace written to {sys.argv[1]}")


if __name__ == "__main__":
    main()
