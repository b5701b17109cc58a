#!/usr/bin/env python3
"""Fail early, fail fast — automated early termination with alerts.

The paper's core motivation: researchers waste days waiting on
simulations that a human watching the dashboard would have killed in
minutes.  Alert rules automate that watching.  This example arms two
rules on the bug-enabled platform of case study 2:

1. a *notify* rule on the L2's top-port buffer (the early congestion
   symptom), and
2. an *abort-on-hang* policy — the watchdog with no *Tick* retries —
   that terminates the run the moment it confirms the hang —

then launches the deadlocking workload and shows the run being torn
down automatically, with the firing log explaining why.

Run:  python examples/fail_fast.py
"""

import time

from repro.core import Monitor
from repro.gpu import GPUPlatform
from repro.workloads import StoreStorm


def main() -> None:
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.sample_interval = 0.02

    l2 = platform.chiplets[0].l2s[0]
    rule = monitor.add_alert(l2.name, "top_port.buf", ">=",
                             l2.top_port.buf.capacity, duration=0.05,
                             action="notify")
    monitor.enable_watchdog(max_tick_retries=0, check_interval=0.02)
    monitor.start_sampler()
    print(f"armed: {rule.label} (notify after 50ms sustained)")
    print("armed: abort-on-hang policy (watchdog, no Tick retries)")

    StoreStorm().enqueue(platform.driver)
    print("\nlaunching the deadlocking workload "
          "(no human is watching)...")
    start = time.monotonic()
    completed = platform.run(hang_wait=600.0)  # would wait 10 minutes
    elapsed = time.monotonic() - start

    time.sleep(0.2)  # let the sampler finish its in-flight pass
    monitor.stop_sampler()

    print(f"\nrun ended after {elapsed:.1f}s wall "
          f"(instead of blocking for 600s): "
          f"completed={completed}, state={platform.simulation.run_state}")
    for fired in monitor.alerts.fired_log:
        print(f"  fired: {fired.label} at sim "
              f"t={fired.fired_at_sim_time * 1e9:.0f} ns "
              f"(action: {fired.action})")
    stuck = monitor.analyzer.non_empty()
    print(f"  post-mortem: {len(stuck)} buffers still holding content "
          f"(the hang's footprint)")
    monitor.stop_server()


if __name__ == "__main__":
    main()
