"""The inter-chiplet network switch.

A single shared switch connects every chiplet's RDMA engine.  Its
forwarding rate (messages per cycle, across all ports) and link latency
are the knobs that make it the root bottleneck of case study 1: the
default MCM configuration deliberately models a network much slower than
the chiplet-local memory hierarchy, exactly the situation the paper's
im2col study uncovers.
"""

from __future__ import annotations

from typing import Dict, List

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .mem import NetMsg


class ChipletSwitch(TickingComponent):
    """Crossbar switch with a global forwarding-rate limit."""

    def __init__(self, name: str, engine: Engine, num_ports: int,
                 freq: float = GHZ, msgs_per_cycle: int = 1):
        super().__init__(name, engine, freq)
        self.msgs_per_cycle = msgs_per_cycle
        self._ports_list: List[Port] = [
            self.add_port(f"Port{i}", 16) for i in range(num_ports)]
        # final destination port -> index of the switch port that reaches it
        self._routes: Dict[Port, int] = {}
        self._rr = 0  # round-robin pointer over input ports
        self.num_forwarded = 0

    def switch_port(self, index: int) -> Port:
        return self._ports_list[index]

    def add_route(self, final_dst: Port, via_port_index: int) -> None:
        """Teach the switch that *final_dst* is reached via its port
        *via_port_index*."""
        self._routes[final_dst] = via_port_index

    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Messages waiting in the switch input buffers (monitored)."""
        return sum(p.buf.size for p in self._ports_list)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        progress = False
        n = len(self._ports_list)
        forwarded = 0
        attempts = 0
        while forwarded < self.msgs_per_cycle and attempts < n:
            port = self._ports_list[self._rr]
            self._rr = (self._rr + 1) % n
            attempts += 1
            items = port.incoming
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, NetMsg):
                continue
            out_index = self._routes.get(msg.final_dst)
            if out_index is None:
                port.retrieve_incoming()  # unroutable: drop, keep moving
                continue
            out_port = self._ports_list[out_index]
            msg.dst = msg.final_dst
            if not out_port.send(msg):
                continue  # destination full; try other inputs
            port.retrieve_incoming()
            forwarded += 1
            self.num_forwarded += 1
            progress = True
        return progress
