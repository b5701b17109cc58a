"""A simple banked DRAM controller.

Fixed access latency plus a service-rate limit (requests per cycle).
Requests queue behind each other when the bank is saturated, so a full
DRAM controller buffer is a legitimate bottleneck signal for the
analyzer (and DRAM controllers appear among the non-empty buffers in
case study 2's hang snapshot).
"""

from __future__ import annotations

from typing import List, Tuple

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.ticker import GHZ
from .mem import MemReq, ReadReq


class DRAMController(TickingComponent):
    """One DRAM channel with fixed latency and bounded throughput."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 latency_cycles: int = 100, requests_per_cycle: int = 1,
                 top_buf: int = 16, queue_capacity: int = 64):
        super().__init__(name, engine, freq)
        self.top_port = self.add_port("TopPort", top_buf)
        self.latency_cycles = latency_cycles
        self.requests_per_cycle = requests_per_cycle
        self.queue_capacity = queue_capacity
        # (ready_time, request) in arrival order; ready times are
        # monotonic because latency is constant.
        self._inflight: List[Tuple[float, MemReq]] = []
        self.num_reads = 0
        self.num_writes = 0

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        """Requests being serviced (monitored value)."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        if self._inflight:
            progress = self._respond_ready()
        if self.top_port.incoming:
            progress |= self._accept()
        if (self._inflight and not progress
                and self._inflight[0][0] > self._engine._now + 1e-15):
            # Head not ready yet: wake when it is.  A head that is ready
            # but blocked sleeps instead; freed buffer space upstream
            # wakes us via notify_available.
            self.tick_at(self._inflight[0][0])
        return progress

    def _accept(self) -> bool:
        progress = False
        items = self.top_port.incoming
        for _ in range(self.requests_per_cycle):
            if not items or len(self._inflight) >= self.queue_capacity:
                break
            msg = items[0]
            if not isinstance(msg, MemReq):
                break
            self.top_port.retrieve_incoming()
            ready = self._engine._now + self.latency_cycles / self.freq
            self._inflight.append((ready, msg))
            progress = True
        return progress

    def _respond_ready(self) -> bool:
        progress = False
        now = self._engine._now
        for _ in range(self.requests_per_cycle):
            if not self._inflight or self._inflight[0][0] > now + 1e-15:
                break
            _, req = self._inflight[0]
            assert req.src is not None
            if not self.top_port.send(req.reply(req.src)):
                break
            self._inflight.pop(0)
            if isinstance(req, ReadReq):
                self.num_reads += 1
            else:
                self.num_writes += 1
            progress = True
        return progress
