"""A simple banked DRAM controller.

Fixed access latency plus a service-rate limit: one request accepted
and one answered per cycle.
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

#: Requests in service at once.
_QUEUE_CAPACITY = 64


class DRAMController(TickingComponent):
    """One DRAM channel with fixed latency and bounded throughput."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 latency_cycles: int = 100):
        super().__init__(name, engine, freq)
        self.top_port = self.add_port("TopPort", 16)
        self.latency_cycles = latency_cycles
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
        msg = self.top_port.incoming[0]
        if len(self._inflight) >= _QUEUE_CAPACITY \
                or not isinstance(msg, MemReq):
            return False
        self.top_port.retrieve_incoming()
        ready = self._engine._now + self.latency_cycles / self.freq
        self._inflight.append((ready, msg))
        return True

    def _respond_ready(self) -> bool:
        ready, req = self._inflight[0]
        if ready > self._engine._now + 1e-15:
            return False
        assert req.src is not None
        if not self.top_port.send(req.reply(req.src)):
            return False
        self._inflight.pop(0)
        if isinstance(req, ReadReq):
            self.num_reads += 1
        else:
            self.num_writes += 1
        return True
