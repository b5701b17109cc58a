#!/usr/bin/env python3
"""Case study 1 (paper §V-A): performance analysis of im2col.

Reproduces the paper's diagnostic walk on a 4-chiplet MCM GPU running
the Image-to-Column workload, step by step:

1. confirm the simulation is progressing (progress bar + timer),
2. repeatedly refresh the bottleneck analyzer → the L1VROB top-port
   buffers are consistently 8/8,
3. time-chart the ROB's own transaction count → fluctuates below
   capacity, so the ROB is not the limiter,
4. chart the address translator → bursts that drain (healthy),
5. chart the L1 cache → pinned at its MSHR capacity (16),
6. chart the RDMA engine → a large pile of in-flight transactions
   ⇒ the inter-chiplet network is the root cause.

Run:  python examples/case_study_im2col.py
"""

import threading
import time

from repro.core import Monitor, RTMClient, SeriesRecorder
from repro.studies.session import problem_platform_config, problem_workload
from repro.gpu import GPUPlatform


def spark(points, width=60):
    """Render a value series as a one-line ASCII sparkline."""
    if not points:
        return "(no data)"
    values = [v for _, v in points][-width:]
    top = max(max(values), 1.0)
    blocks = "▁▂▃▄▅▆▇█"
    return "".join(blocks[min(len(blocks) - 1,
                              int(v / top * (len(blocks) - 1)))]
                   for v in values) + f"  (min {min(values):.0f}, " \
                                      f"max {max(values):.0f})"


def main() -> None:
    print("=== Case study 1: im2col on a 4-chiplet MCM GPU ===\n")
    platform = GPUPlatform(problem_platform_config())
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    url = monitor.start_server()
    print(f"dashboard: {url}\n")

    problem_workload().enqueue(platform.driver)
    sim = threading.Thread(target=platform.run, daemon=True)
    sim.start()
    client = RTMClient(url)

    # Step 1: initial assessment — the simulation is progressing.
    print("[1] Initial assessment")
    t_prev = -1.0
    while True:
        bars = client.progress()
        kernel = next((b for b in bars if b["name"].startswith("kernel")),
                      None)
        t_now = client.overview()["now"]
        if kernel and kernel["completed"] + kernel["ongoing"] > 0 \
                and t_now > t_prev > 0:
            print(f"    timer advancing ({t_now * 1e9:.0f} ns) and "
                  f"progress moving "
                  f"({kernel['completed']}/{kernel['ongoing']}/"
                  f"{kernel['not_started']}) -> simulation is healthy\n")
            break
        t_prev = t_now
        time.sleep(0.2)

    # Step 2: bottleneck analyzer, repeatedly refreshed.
    print("[2] Bottleneck analyzer (refreshed 8 times)")
    rob_top_hits = 0
    example_row = None
    for _ in range(8):
        rows = client.buffers(sort="percent", top=8)
        pinned = [r for r in rows if "L1VROB" in r["buffer"]
                  and r["percent"] >= 1.0]
        if pinned:
            rob_top_hits += 1
            example_row = pinned[0]
        time.sleep(0.1)
    print(f"    L1VROB top-port at 8/8 in {rob_top_hits}/8 refreshes, "
          f"e.g. {example_row['buffer']}")
    print("    -> the ROBs are not draining fast enough; "
          "investigate below\n")

    rob = example_row["buffer"].rsplit(".", 2)[0]
    sa = rob.rsplit(".", 1)[0]
    gpu = sa.split(".")[0]
    names = client.components()
    at = next(n for n in names if n.startswith(sa) and "L1VAddrTrans" in n)
    l1 = next(n for n in names if n.startswith(sa) and "L1VCache" in n)
    rdma = f"{gpu}.RDMA"

    # Steps 3-6: time charts of the suspects (the flag-icon workflow).
    print("[3-6] Value monitoring (2s windows each)")
    for label, component, path, verdict in [
        ("ROB top-port buffer", rob, "top_port.buf",
         "constantly full -> bottleneck is below the ROB"),
        ("ROB transactions", rob, "size",
         "fluctuates below capacity -> ROB size is NOT the limit"),
        ("addr-translator transactions", at, "transactions",
         "spikes that drain -> translator is healthy"),
        ("L1 transactions", l1, "transactions",
         "pinned at MSHR capacity (16) -> L1 is resource-limited"),
        ("RDMA transactions", rdma, "transactions",
         "large and sustained -> the network is the root cause"),
    ]:
        recorder = SeriesRecorder(client, [(component, path)],
                                  interval=0.03)
        recorder.record_for(1.2)
        print(f"    {label:32s} {spark(recorder.series[0].points)}")
        print(f"    {'':32s} -> {verdict}")
    print()

    print("[conclusion] The RDMA engines hold the in-flight transactions "
          "gathered from all L1s;\n the slow inter-chiplet network is the "
          "performance bottleneck — matching the paper's finding.")

    platform.simulation.abort()
    sim.join(timeout=30)
    monitor.stop_server()


if __name__ == "__main__":
    main()
