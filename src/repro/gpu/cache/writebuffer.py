"""The L2 write buffer — home of case study 2's deadlock.

All traffic between an L2 bank's local storage and DRAM flows through
this buffer, in both directions (as in MGPUSim):

* **evictions** — dirty lines leaving the cache, to be written to DRAM;
* **fetches** — miss requests on their way to DRAM;
* **fills** — data fetched from DRAM, on its way *back into* the cache's
  local storage.

The shipped (buggy) implementation processes its internal queue strictly
in FIFO order.  When the queue head is a *fill* whose destination (the
L2 storage port) is full, everything behind it stalls — including the
evictions whose draining would eventually free the storage port.  The
L2, meanwhile, refuses to accept fills while it has an eviction it
cannot hand to this (full) write buffer.  That mutual wait is the hang
the paper's authors found with AkitaRTM and patched in MGPUSim.

``buggy=False`` applies the fix: the queue is scanned for the first
*processable* entry each cycle, so a blocked fill cannot starve
evictions and fetches (and the L2's eager-eviction fix removes the
reverse edge of the cycle — see :mod:`repro.gpu.cache.l2`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...akita.component import TickingComponent
from ...akita.engine import Engine
from ...akita.port import Port
from ...akita.ticker import GHZ
from ..mem import (
    CACHE_LINE_SIZE,
    DataReadyRsp,
    EvictionReq,
    FetchedData,
    MemRsp,
    ReadReq,
    WriteReq,
)

#: Internal queue entry kinds.
_EVICT, _FETCH, _FILL = "evict", "fetch", "fill"


class WriteBuffer(TickingComponent):
    """Bidirectional staging buffer between an L2 bank and DRAM."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 queue_capacity: int = 8, in_buf: int = 4,
                 dram_buf: int = 8, width: int = 2, buggy: bool = False):
        super().__init__(name, engine, freq)
        self.in_port = self.add_port("InPort", in_buf)
        self.dram_port = self.add_port("DRAMPort", dram_buf)
        self.queue_capacity = queue_capacity
        self.width = width
        self.buggy = buggy
        self.storage_port: Optional[Port] = None  # L2's StoragePort
        self.dram_top: Optional[Port] = None      # DRAM controller TopPort
        self._queue: List[Tuple[str, object]] = []
        # dram fetch id -> original fetch request (from the L2)
        self._pending_fetches: Dict[int, ReadReq] = {}
        self.num_evictions = 0
        self.num_fills = 0
        self.blocked_on: Optional[str] = None  # diagnosis aid (RTM-visible)

    def connect(self, storage_port: Port, dram_top: Port) -> None:
        self.storage_port = storage_port
        self.dram_top = dram_top

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Entries in the internal queue (monitored value)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        progress = False
        if self.buggy:
            # The shipped design gives returning DRAM data priority for
            # queue slots; under a fill burst the queue becomes all-fills
            # with a blocked head, which is what starves the L2's
            # eviction and closes the deadlock cycle.
            progress |= self._accept_from_dram()
            progress |= self._accept_from_l2()
        else:
            progress |= self._accept_from_l2()
            progress |= self._accept_from_dram()
        progress |= self._process_queue()
        return progress

    def _accept_from_l2(self) -> bool:
        progress = False
        items = self.in_port.incoming
        for _ in range(self.width):
            if not items or len(self._queue) >= self.queue_capacity:
                break
            msg = items[0]
            self.in_port.retrieve_incoming()
            if isinstance(msg, EvictionReq):
                self._queue.append((_EVICT, msg))
            else:
                assert isinstance(msg, ReadReq)
                self._queue.append((_FETCH, msg))
            progress = True
        return progress

    def _accept_from_dram(self) -> bool:
        progress = False
        items = self.dram_port.incoming
        for _ in range(self.width):
            if not items or len(self._queue) >= self.queue_capacity:
                break
            msg = items[0]
            if isinstance(msg, DataReadyRsp):
                original = self._pending_fetches.pop(msg.respond_to, None)
                self.dram_port.retrieve_incoming()
                if original is not None:
                    self._queue.append((_FILL, original))
                progress = True
            elif isinstance(msg, MemRsp):
                self.dram_port.retrieve_incoming()  # write ack: drop
                progress = True
            else:
                break
        return progress

    def _process_queue(self) -> bool:
        progress = False
        for _ in range(self.width):
            index = self._next_processable()
            if index is None:
                break
            kind, payload = self._queue[index]
            if self._dispatch(kind, payload):
                self._queue.pop(index)
                progress = True
            else:
                break
        return progress

    def _next_processable(self) -> Optional[int]:
        """Index of the next queue entry to process.

        The buggy variant is strictly FIFO (returns 0 whether or not the
        head can actually be dispatched — a blocked head stalls all).
        The fixed variant skips blocked entries.
        """
        if not self._queue:
            return None
        if self.buggy:
            return 0
        for i, (kind, payload) in enumerate(self._queue):
            if self._can_dispatch(kind):
                return i
        return None

    def _can_dispatch(self, kind: str) -> bool:
        assert self.storage_port is not None and self.dram_top is not None
        dst = self.storage_port if kind == _FILL else self.dram_top
        return dst.buf.free_slots > 0

    def _dispatch(self, kind: str, payload) -> bool:
        assert self.storage_port is not None and self.dram_top is not None
        if kind == _EVICT:
            assert isinstance(payload, EvictionReq)
            write = WriteReq(self.dram_top, payload.address,
                             CACHE_LINE_SIZE)
            if not self.dram_port.send(write):
                self.blocked_on = "send eviction writeback to DRAM"
                return False
            self.num_evictions += 1
        elif kind == _FETCH:
            assert isinstance(payload, ReadReq)
            fetch = ReadReq(self.dram_top, payload.address,
                            payload.access_bytes)
            if not self.dram_port.send(fetch):
                self.blocked_on = "send fetch to DRAM"
                return False
            self._pending_fetches[fetch.id] = payload
        else:  # _FILL
            assert isinstance(payload, ReadReq)
            fill = FetchedData(self.storage_port, payload.address,
                               payload.id)
            if not self.in_port.send(fill):
                self.blocked_on = ("send fetched data to local storage "
                                   "(StoragePort full)")
                return False
            self.num_fills += 1
        self.blocked_on = None
        return True
