#!/usr/bin/env python3
"""Monitoring a *non-GPU* simulator (paper §IV-B, Figure 1).

AkitaRTM's API is simulator-agnostic: anything built from components,
ports and buffers can be registered.  This example builds the paper's
Figure 4 pedagogical system — a four-stage chain A → B → C → D where C
is deliberately slow — registers it with the monitor, and shows the
bottleneck analyzer pointing straight at C's input buffer.

It also demonstrates the manual progress-bar API (the paper's
"number of algorithm iterations" use case), and a view of its own: the
simulator registers one extra route, ``GET /api/chain``, with the same
public call the monitor's planes use, and every monitor server of the
process answers it — no framework file edited.

Run:  python examples/custom_simulator.py
"""

import json
import threading
import time
from urllib.request import urlopen

from repro.akita import (
    DirectConnection,
    Msg,
    Simulation,
    TickingComponent,
)
from repro.core import Monitor, RTMClient, register_routes


class Producer(TickingComponent):
    """Stage A: emits bursts of 4 requests every 40 ns.

    The long-run rate (0.1 req/ns) matches slow C's service rate, so B
    and D drain between bursts while C's buffer stays full — giving the
    paper's Figure 4 snapshot where *only* the bottleneck's input buffer
    is occupied."""

    def __init__(self, name, engine, downstream, total):
        super().__init__(name, engine)
        self.out = self.add_port("Out", 4)
        self.downstream = downstream
        self.remaining = total
        self._burst_left = 4

    def tick(self):
        if self.remaining == 0:
            return False
        if self._burst_left == 0:
            self._burst_left = 4
            self.tick_at(self.engine.now + 40e-9)  # rest until next burst
            return False
        if self.out.send(Msg(dst=self.downstream)):
            self.remaining -= 1
            self._burst_left -= 1
            return True
        return False


class Stage(TickingComponent):
    """Stages B/C/D: forward each request after `service_cycles`."""

    def __init__(self, name, engine, service_cycles, buf_capacity=4):
        super().__init__(name, engine, freq=1e9 / service_cycles)
        self.inp = self.add_port("In", buf_capacity)
        self.out = self.add_port("Out", 4)
        self.downstream = None
        self.processed = 0

    def tick(self):
        if self.downstream is None:  # final stage: sink
            if self.inp.retrieve_incoming() is not None:
                self.processed += 1
                return True
            return False
        msg = self.inp.peek_incoming()
        if msg is None:
            return False
        if self.out.send(Msg(dst=self.downstream)):
            self.inp.retrieve_incoming()
            self.processed += 1
            return True
        return False


def chain_view(server, params):
    """``GET /api/chain``: how many requests each stage has passed on."""
    monitor = server.monitor
    return {name: monitor.component(name).processed
            for name in ("B", "C", "D")}


register_routes([("GET", "/api/chain", chain_view,
                  "requests each stage processed")])


def main() -> None:
    print("=== Figure 4: buffer fullness finds the slow stage ===\n")
    sim = Simulation("chain")
    engine = sim.engine

    total = 50_000
    d = Stage("D", engine, service_cycles=2)
    c = Stage("C", engine, service_cycles=10)   # the deliberate bottleneck
    b = Stage("B", engine, service_cycles=2)
    a = Producer("A", engine, b.inp, total=total)
    b.downstream, c.downstream = c.inp, d.inp

    for src, dst, name in [(a.out, b.inp, "AB"), (b.out, c.inp, "BC"),
                           (c.out, d.inp, "CD")]:
        conn = DirectConnection(name, engine, latency=1e-9)
        conn.plug_in(src)
        conn.plug_in(dst)
        sim.register_connection(conn)
    for component in (a, b, c, d):
        sim.register_component(component)
    sim.set_completion_check(lambda: d.processed >= total)

    # Plug in the monitor exactly as a custom simulator would: either
    # per-component (the paper's RegisterComponent)...
    monitor = Monitor()
    monitor.register_engine(engine)
    for component in (a, b, c, d):
        monitor.register_component(component)
    # ...or wholesale, which additionally wires hang detection:
    monitor.register_simulation(sim)
    url = monitor.start_server()
    print(f"dashboard: {url}\n")

    # A manual progress bar driven by the application.
    bar = monitor.create_progress_bar(
        "requests", provider=lambda: (d.processed,
                                      c.processed - d.processed, total))

    a.tick_later()
    thread = threading.Thread(target=sim.run, daemon=True)
    thread.start()
    client = RTMClient(url)

    # Wait until the bottleneck's buffer saturates, then PAUSE the
    # simulation (Figure 2 C) so the snapshot is taken at a consistent
    # event boundary.
    while monitor.component("C").inp.buf.size < 4 and thread.is_alive():
        time.sleep(0.005)
    client.pause()
    print("bottleneck analyzer (simulation paused for inspection):")
    for row in client.buffers(sort="percent", top=4):
        marker = "  <-- the slow component's input" \
            if row["buffer"].startswith("C.") else ""
        print(f"    {row['buffer']:12s} {row['size']}/{row['capacity']}"
              f"{marker}")
    completed, ongoing, total = bar.counts
    print(f"\nprogress bar: {completed} done / {ongoing} in flight "
          f"/ {total - completed - ongoing} pending")
    client.continue_()

    thread.join(timeout=120)
    print(f"\nchain drained: D processed {d.processed} requests "
          f"in {sim.now * 1e6:.1f} us simulated")
    with urlopen(f"{url}/api/chain") as response:
        print(f"GET /api/chain -> {json.load(response)}")
    monitor.stop_server()


if __name__ == "__main__":
    main()
