#!/usr/bin/env python3
"""Quickstart: monitor a GPU simulation with AkitaRTM in ~20 lines.

Builds a small multi-chiplet GPU, attaches the monitor, runs the FIR
benchmark, and polls the monitoring API while the simulation runs —
exactly what the web dashboard does, but from Python.

Run:  python examples/quickstart.py
Then open the printed URL in a browser to watch the dashboard live.
"""

import threading
import time

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.workloads import FIR


def main() -> None:
    # 1. Build the simulated hardware: 2 chiplets, small config.
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))

    # 2. Attach AkitaRTM: one call registers the engine and every
    #    component, adds the driver's default progress bars and starts
    #    the sampler that feeds the time charts and the hang detector.
    monitor = Monitor.for_platform(platform)
    url = monitor.start_server()
    print(f"AkitaRTM dashboard: {url}")

    # 3. Enqueue a workload and run the simulation in its own thread
    #    (the monitor serves requests from server threads in parallel).
    FIR(num_samples=65536).enqueue(platform.driver)
    sim_thread = threading.Thread(target=platform.run)
    sim_thread.start()

    # 4. Watch it run.
    while sim_thread.is_alive():
        overview = monitor.overview()
        bars = {b.name: f"{b.completed}/{b.total}"
                for b in monitor.progress_bars()}
        resources = monitor.resources.sample()
        print(f"t={overview['now'] * 1e6:8.2f}us "
              f"state={overview['run_state']:9s} "
              f"events={overview['event_count']:>9,} "
              f"cpu={resources.cpu_percent:5.1f}% "
              f"progress={bars}")
        time.sleep(0.5)
    sim_thread.join()

    print(f"\nDone: {platform.simulation.run_state} "
          f"at t={platform.simulation.now * 1e6:.2f}us")
    monitor.stop_server()


if __name__ == "__main__":
    main()
