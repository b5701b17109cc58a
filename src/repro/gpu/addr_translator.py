"""The L1 vector address translator (L1VAddrTrans).

Translates virtual to physical addresses with a small TLB.  TLB hits
take one cycle; misses pay a fixed page-walk penalty (the walk itself is
modelled as latency — see DESIGN.md's substitution table).

Its monitored ``transactions`` count shows the paper's Figure 5(d)
behaviour: bursts when a wave of requests arrives, draining quickly —
the signature of a component that is *not* the bottleneck.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .mem import MemReq, MemRsp
from .tlb import TLB


class AddressTranslator(TickingComponent):
    """A pipelined translation stage between the ROB and the L1 cache."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 tlb_capacity: int = 64, max_inflight: int = 64):
        super().__init__(name, engine, freq)
        self.top_port = self.add_port("TopPort", 4)
        self.bottom_port = self.add_port("BottomPort", 4)
        self.down_port: Optional[Port] = None
        self.tlb = TLB(tlb_capacity)
        self.hit_latency = 1    # cycles
        self.miss_latency = 20  # cycles: the page walk
        self.width = 4
        self.max_inflight = max_inflight
        # (ready_time, seq, request) — requests whose translation is in
        # flight inside the translator pipeline.
        self._pipeline: List[Tuple[float, int, MemReq]] = []
        self._seq = 0
        # forwarded request id -> original request
        self._pending_down: Dict[int, MemReq] = {}
        self.num_translated = 0

    def connect_down(self, down_port: Port) -> None:
        self.down_port = down_port

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        """Requests actively being translated (monitored value).

        Deliberately excludes requests already forwarded to the L1 and
        awaiting a response — those belong to the cache's accounting.
        This is what gives the translator its paper signature of short
        spikes that drain quickly (Figure 5(d)): translation itself is
        never the bottleneck.
        """
        return len(self._pipeline)

    @property
    def inflight_below(self) -> int:
        """Requests forwarded downstream and awaiting a response."""
        return len(self._pending_down)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        if self.bottom_port.incoming:
            progress = self._respond_up()
        if self._pipeline:
            progress |= self._drain_pipeline()
        if self.top_port.incoming:
            progress |= self._accept()
        if (self._pipeline and not progress
                and self._pipeline[0][0] > self._engine._now + 1e-15):
            # Nothing to do until the head translation completes; a
            # ready-but-blocked head waits for a notify_available wake.
            self.tick_at(self._pipeline[0][0])
        return progress

    def _accept(self) -> bool:
        progress = False
        items = self.top_port.incoming
        for _ in range(self.width):
            # Only the translation pipeline is a held resource; requests
            # already forwarded to the cache below are its problem, not
            # ours (the table entry is pure bookkeeping for the reply).
            if not items or len(self._pipeline) >= self.max_inflight:
                break
            msg = items[0]
            if not isinstance(msg, MemReq):
                break
            self.top_port.retrieve_incoming()
            if self.tlb.lookup(msg.address):
                latency = self.hit_latency
            else:
                latency = self.miss_latency
                self.tlb.fill(msg.address)
            ready = self._engine._now + latency / self.freq
            heapq.heappush(self._pipeline, (ready, self._seq, msg))
            self._seq += 1
            progress = True
        return progress

    def _drain_pipeline(self) -> bool:
        """Forward translated requests downstream (identity mapping: the
        timing model does not relocate pages)."""
        assert self.down_port is not None, f"{self.name} not wired"
        progress = False
        now = self._engine._now
        # No more than the slots free below, so a request is built (and
        # numbered) only once it will be admitted.
        free = self.down_port.buf.free_slots
        for _ in range(free if free < self.width else self.width):
            if not self._pipeline or self._pipeline[0][0] > now + 1e-15:
                break
            _, __, req = self._pipeline[0]
            fwd = req.forward(self.down_port)
            if not self.bottom_port.send(fwd):
                break
            heapq.heappop(self._pipeline)
            self._pending_down[fwd.id] = req
            self.num_translated += 1
            progress = True
        return progress

    def _respond_up(self) -> bool:
        progress = False
        items = self.bottom_port.incoming
        for _ in range(self.width):
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, MemRsp):
                break
            original = self._pending_down.get(msg.respond_to)
            if original is None:
                self.bottom_port.retrieve_incoming()
                continue
            assert original.src is not None
            if not self.top_port.send(original.reply(original.src)):
                break
            self.bottom_port.retrieve_incoming()
            del self._pending_down[msg.respond_to]
            progress = True
        return progress
