#!/usr/bin/env python3
"""Case study 2 (paper §V-B): debugging a simulator hang.

Runs a store-heavy workload on a platform whose L2 write buffer carries
the real MGPUSim deadlock bug, then walks the paper's debugging recipe:

1. confirm the hang — progress bars frozen, simulation time frozen,
   CPU usage far below 100%;
2. open the bottleneck analyzer — non-empty buffers mark the components
   that cannot make progress (L1 caches, L2, write buffer, DRAM);
3. step the suspect components with the *Tick* button + *Kick Start*
   and read their ``blocked_on`` diagnostics to localize the cycle:
   the L2's local storage and the write buffer are waiting on each
   other;
4. apply the fix (eager eviction + no head-of-line blocking) and show
   the same workload completing.

Run:  python examples/case_study_hang_debug.py
"""

import threading
import time

from repro.core import Monitor, RTMClient
from repro.gpu import GPUPlatform
from repro.workloads import StoreStorm


def run_buggy() -> None:
    print("=== Phase A: the buggy simulator ===\n")
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    monitor = Monitor.for_platform(platform)
    url = monitor.start_server()
    print(f"dashboard: {url}")

    StoreStorm().enqueue(platform.driver)
    # hang_wait keeps the hung process alive for in-place debugging.
    sim = threading.Thread(
        target=lambda: platform.run(hang_wait=60.0), daemon=True)
    sim.start()
    client = RTMClient(url)

    # [1] Watch for the hang signature.
    print("\n[1] Waiting for the hang signature "
          "(frozen time + low CPU)...")
    while True:
        status = client.hang()
        if status["hung"]:
            resources = client.resources()
            print(f"    HANG at t={status['sim_time'] * 1e9:.0f} ns: "
                  f"time frozen {status['stalled_wall_seconds']:.1f}s, "
                  f"cpu={resources['cpu_percent']:.0f}%, "
                  f"run_state={status['run_state']}")
            break
        time.sleep(0.2)

    # [2] Bottleneck analyzer: who is stuck?
    print("\n[2] Non-empty buffers (stuck components):")
    for row in client.buffers(sort="size", top=10):
        print(f"    {row['buffer']:48s} {row['size']}/{row['capacity']}")

    # [3] Tick the suspects and read their diagnostics.
    print("\n[3] Stepping suspect components (Tick + Kick Start):")
    suspects = [n for n in client.components()
                if "L2" in n or "WriteBuffer" in n]
    for name in suspects:
        client.tick(name)       # wake the sleeping component
        client.kickstart()      # resume the dry run loop for one step
        time.sleep(0.1)
        detail = client.component(name)
        blocked = detail["fields"].get("blocked_on")
        if blocked:
            print(f"    {name:28s} blocked on: {blocked}")
    print("\n    -> local storage waits for the write buffer, the write "
          "buffer waits for local storage:\n       a deadlock in the L2 "
          "write-buffer protocol (the bug the paper found and patched).")

    # [4] Optional: the GDB/Delve-style line-step, in code.  The paper
    # sets a breakpoint on Tick and steps; TickStepper is the
    # programmatic equivalent.
    from repro.gpu import TickStepper
    print("\n[4] Stepping the write buffer's Tick under a breakpoint:")
    wb = platform.chiplets[0].write_buffers[0]
    with TickStepper(wb) as stepper:
        record = stepper.step()
        print(f"    tick at t={record.time * 1e9:.0f} ns: "
              f"progress={record.made_progress}, "
              f"buffers moved={record.buffer_deltas or 'none'}")
        print(f"    diagnosis: {stepper.diagnosis()}")

    platform.simulation.abort()
    sim.join(timeout=30)
    monitor.stop_server()


def run_fixed() -> None:
    print("\n=== Phase B: the patched simulator ===\n")
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=False))
    monitor = Monitor.for_platform(platform)
    StoreStorm().enqueue(platform.driver)
    completed = platform.run()
    print(f"    same workload, eager-eviction write buffer: "
          f"completed={completed} at t={platform.simulation.now * 1e9:.0f} ns")
    monitor.stop_server()


if __name__ == "__main__":
    run_buggy()
    run_fixed()
