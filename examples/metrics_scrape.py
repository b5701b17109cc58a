#!/usr/bin/env python3
"""Scrape a live run's /metrics and print the Figure-7 breakdown.

The metrics registry prices every hook position one of its callbacks
runs at (`rtm_hook_callback_seconds_total{position=...}`), so the
callback share of monitoring overhead is a quantity you *scrape from
the run itself* rather than measure by differencing wall clocks across
repeated runs.  No callback runs per event — event counts and engine
wall time are read from the engine at scrape time — so the table lists
the occupancy sample at `port_deliver` and the engine lifecycle
positions only.  This script runs the 2-chiplet StoreStorm write
workload, scrapes the registry mid-flight and again at the end, and
prints the per-position cost table (see EXPERIMENTS.md, "Figure 7 from
/metrics alone").

Run:  python examples/metrics_scrape.py
"""

import threading
import time

from repro.core import Monitor, RTMClient
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads.storestorm import StoreStorm


def sample_value(family, labels=None):
    for s in family.get("samples", []):
        if labels is None or all(s["labels"].get(k) == v
                                 for k, v in labels.items()):
            return s["value"]
    return 0.0


def print_breakdown(snapshot) -> None:
    calls = snapshot.get("rtm_hook_callbacks_total", {})
    secs = snapshot.get("rtm_hook_callback_seconds_total", {})
    wall = sample_value(snapshot.get(
        "rtm_engine_event_wall_seconds_total", {}))
    print(f"  {'position':<16s} {'callbacks':>12s} {'seconds':>10s} "
          f"{'ns/call':>9s}")
    total = 0.0
    for s in calls.get("samples", []):
        pos = s["labels"].get("position", "?")
        n = s["value"]
        if not n:
            continue
        t = sample_value(secs, {"position": pos})
        total += t
        per = (t / n * 1e9) if n else 0.0
        print(f"  {pos:<16s} {n:>12,.0f} {t:>10.4f} {per:>9.0f}")
    if wall:
        print(f"  callback share: {total / wall:.1%} of "
              f"{wall:.3f}s engine wall time (delivery cost is sampled"
              " and scaled: an upper bound)")


def main() -> None:
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    StoreStorm().enqueue(platform.driver)
    url = monitor.start_server()
    client = RTMClient(url)
    client.metrics_start()  # attach before the run so hooks see it all

    sim = threading.Thread(target=platform.run)
    sim.start()

    time.sleep(0.3)
    print("mid-run scrape:")
    print_breakdown(client.metrics_snapshot())

    sim.join()
    print("\nfinal scrape:")
    snapshot = client.metrics_snapshot()
    print_breakdown(snapshot)
    events = sample_value(snapshot["rtm_engine_events_total"])
    print(f"\nrun complete: {events:,.0f} events, "
          f"t = {sample_value(snapshot['rtm_engine_sim_time_seconds']):.6f}s"
          " simulated")
    monitor.stop_server()


if __name__ == "__main__":
    main()
