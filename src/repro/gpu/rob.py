"""The L1 vector reorder buffer (L1VROB).

Sits between a compute unit and the address translator.  Responses from
the memory system may return out of order (cache hits overtake misses);
the ROB retires them back to the CU in issue order.

Observables that matter to the paper:

* ``TopPort.Buf`` — capacity 8; the buffer that shows up
  pinned at 8/8 in Figure 3 and Figure 5(c) when the downstream memory
  system cannot keep up.
* ``transactions`` — the in-flight entries inside the ROB itself, the
  value that fluctuates between ~70 and ~130 in Figure 5(d) (capacity
  128 by default, not the limiting resource).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..akita.component import TickingComponent
from ..akita.engine import Engine
from ..akita.port import Port
from ..akita.ticker import GHZ
from .mem import MemReq, MemRsp


class _ROBEntry:
    """One in-flight request: original message, forwarded copy, and the
    response once it arrived."""

    __slots__ = ("original", "forwarded", "done")

    def __init__(self, original: MemReq):
        self.original = original
        self.forwarded: Optional[MemReq] = None
        self.done = False


class ReorderBuffer(TickingComponent):
    """In-order retirement buffer in front of the L1 pipeline."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 capacity: int = 128):
        super().__init__(name, engine, freq)
        self.capacity = capacity
        self.width = 4
        self.top_port = self.add_port("TopPort", 8)
        self.bottom_port = self.add_port("BottomPort", 4)
        self.down_port: Optional[Port] = None  # address translator's top
        self.transactions: List[_ROBEntry] = []
        self._by_forwarded_id: Dict[int, _ROBEntry] = {}
        self.num_retired = 0

    def connect_down(self, down_port: Port) -> None:
        """Point the ROB at the component that drains it."""
        self.down_port = down_port

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of in-flight transactions (monitored value)."""
        return len(self.transactions)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its input holds work.
        progress = False
        if self.transactions:
            progress = self._retire()
        if self.bottom_port.incoming:
            progress |= self._process_responses()
        if self.top_port.incoming:
            progress |= self._accept_and_forward()
        return progress

    def _accept_and_forward(self) -> bool:
        """Consume a top-buffer request only when it can be forwarded
        downstream in the same cycle (as MGPUSim's ROB does).

        This admission gating is what makes ``TopPort.Buf`` pin at 8/8
        when the memory system below is the bottleneck (Figure 5(c)),
        while the ROB's own transaction count stays below capacity.
        """
        assert self.down_port is not None, f"{self.name} not wired"
        progress = False
        items = self.top_port.incoming
        # Forward no more than the slots free below, so a request is
        # built (and numbered) only once it will be admitted; a full
        # downstream leaves requests piling up in TopPort.Buf.
        free = self.down_port.buf.free_slots
        for _ in range(free if free < self.width else self.width):
            if not items or len(self.transactions) >= self.capacity:
                break
            msg = items[0]
            if not isinstance(msg, MemReq):
                break
            fwd = msg.forward(self.down_port)
            if not self.bottom_port.send(fwd):
                break
            self.top_port.retrieve_incoming()
            entry = _ROBEntry(msg)
            entry.forwarded = fwd
            self.transactions.append(entry)
            self._by_forwarded_id[fwd.id] = entry
            progress = True
        return progress

    def _process_responses(self) -> bool:
        progress = False
        items = self.bottom_port.incoming
        for _ in range(self.width):
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, MemRsp):
                break
            entry = self._by_forwarded_id.get(msg.respond_to)
            if entry is None:  # response to a dropped transaction: discard
                self.bottom_port.retrieve_incoming()
                continue
            self.bottom_port.retrieve_incoming()
            del self._by_forwarded_id[msg.respond_to]
            entry.done = True
            progress = True
        return progress

    def _retire(self) -> bool:
        """Answer the CU for completed head-of-queue transactions."""
        progress = False
        for _ in range(self.width):
            if not self.transactions or not self.transactions[0].done:
                break
            req = self.transactions[0].original
            assert req.src is not None
            if not self.top_port.send(req.reply(req.src)):
                break
            self.transactions.pop(0)
            self.num_retired += 1
            progress = True
        return progress
