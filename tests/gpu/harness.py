"""Shared test harness components for exercising single GPU components.

* :class:`Requester` — issues a scripted sequence of memory requests into
  a target port and records responses in arrival order.
* :class:`MemoryStub` — terminates a chain: answers every request after a
  fixed latency, optionally out of order or not at all (to model a stuck
  downstream and create backpressure).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.akita import DirectConnection, Engine, TickingComponent
from repro.gpu import MemReq, MemRsp, ReadReq, WriteReq


class Requester(TickingComponent):
    """Feeds requests into a component's top port, gathers responses."""

    def __init__(self, name, engine, target_port, reqs=None,
                 buf_capacity=16):
        super().__init__(name, engine)
        self.out = self.add_port("Out", buf_capacity)
        self.target_port = target_port
        self.to_send: List[Tuple[str, int, int]] = list(reqs or [])
        self.sent: List[MemReq] = []
        self.responses: List[MemRsp] = []

    def add_read(self, addr, nbytes=4):
        self.to_send.append(("load", addr, nbytes))

    def add_write(self, addr, nbytes=4):
        self.to_send.append(("store", addr, nbytes))

    def tick(self):
        progress = False
        while True:
            msg = self.out.retrieve_incoming()
            if msg is None:
                break
            self.responses.append(msg)
            progress = True
        while self.to_send:
            kind, addr, nbytes = self.to_send[0]
            if kind == "load":
                req = ReadReq(self.target_port, addr, nbytes)
            else:
                req = WriteReq(self.target_port, addr, nbytes)
            if not self.out.send(req):
                break
            self.to_send.pop(0)
            self.sent.append(req)
            progress = True
        return progress


class MemoryStub(TickingComponent):
    """Answers everything after ``latency_cycles``; can be frozen."""

    def __init__(self, name, engine, latency_cycles=2, buf_capacity=16,
                 frozen=False):
        super().__init__(name, engine)
        self.top_port = self.add_port("TopPort", buf_capacity)
        self.latency_cycles = latency_cycles
        self.frozen = frozen
        self._inflight: List[Tuple[float, int, MemReq]] = []
        self._seq = 0
        self.seen: List[MemReq] = []

    def tick(self):
        if self.frozen:
            return False
        progress = False
        now = self.engine.now
        while self._inflight and self._inflight[0][0] <= now + 1e-15:
            _, __, req = self._inflight[0]
            if not self.top_port.send(req.reply(req.src)):
                break
            heapq.heappop(self._inflight)
            progress = True
        while True:
            msg = self.top_port.peek_incoming()
            if not isinstance(msg, MemReq):
                break
            self.top_port.retrieve_incoming()
            self.seen.append(msg)
            ready = now + self.latency_cycles / self.freq
            heapq.heappush(self._inflight, (ready, self._seq, msg))
            self._seq += 1
            progress = True
        if (self._inflight and not progress
                and self._inflight[0][0] > now + 1e-15):
            self.tick_at(self._inflight[0][0])
        return progress


def wire(engine: Engine, *ports, latency_cycles: int = 1,
         name: str = "TestConn") -> DirectConnection:
    """Connect ports with a DirectConnection at 1 GHz cycle latency."""
    conn = DirectConnection(name, engine, latency=latency_cycles * 1e-9)
    for p in ports:
        conn.plug_in(p)
    return conn


def run_to_quiescence(engine: Engine, max_time: float = 1e-3) -> None:
    """Run the engine until the queue dries (bounded by *max_time*)."""
    engine.run_until(max_time)
