#!/usr/bin/env python3
"""Record monitored values to CSV/JSON for post-hoc analysis.

§IV-C: real-time monitoring narrows the haystack; this example shows
the hand-off — recording the five Figure 5 series from a live congested
simulation and exporting them for offline tooling (pandas, gnuplot, …).

Run:  python examples/record_timeseries.py [output_dir]
"""

import pathlib
import sys
import threading

from repro.core import Monitor, RTMClient, SeriesRecorder
from repro.gpu import GPUPlatform
from repro.studies.session import problem_platform_config, problem_workload


def main() -> None:
    out_dir = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 \
        else pathlib.Path(".")

    platform = GPUPlatform(problem_platform_config())
    monitor = Monitor.for_platform(platform)
    problem_workload().enqueue(platform.driver)
    url = monitor.start_server()
    print(f"dashboard: {url}")

    sim = threading.Thread(target=platform.run, daemon=True)
    sim.start()
    client = RTMClient(url)

    # Wait for congestion, then record the Figure 5 values.
    import time
    while not any(r["percent"] >= 1.0
                  for r in client.buffers(top=3)):
        time.sleep(0.05)
    chiplet = platform.chiplets[1]
    targets = [
        (chiplet.robs[0].name, "top_port.buf"),
        (chiplet.robs[0].name, "size"),
        (chiplet.ats[0].name, "transactions"),
        (chiplet.l1s[0].name, "transactions"),
        (chiplet.rdma.name, "transactions"),
    ]
    recorder = SeriesRecorder(client, targets, interval=0.02)
    print("recording 3 seconds of the congested phase...")
    recorder.record_for(3.0)

    csv_path = recorder.to_csv(out_dir / "figure5_series.csv")
    json_path = recorder.to_json(out_dir / "figure5_series.json")
    for series in recorder.series:
        values = [v for _, v in series.points if v is not None]
        if values:
            print(f"  {series.label:44s} {len(values):4d} samples, "
                  f"min {min(values):6.0f}  max {max(values):6.0f}")
    print(f"wrote {csv_path} and {json_path}")

    platform.simulation.abort()
    sim.join(timeout=30)
    monitor.stop_server()


if __name__ == "__main__":
    main()
