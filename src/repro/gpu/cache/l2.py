"""The per-chiplet L2 cache bank.

A write-back, write-allocate cache.  All DRAM traffic — miss fetches,
dirty-line evictions, and returning fill data — flows through the bank's
:class:`~repro.gpu.cache.writebuffer.WriteBuffer`.

Two variants (paper case study 2):

* ``buggy=True`` — the original MGPUSim behaviour: the victim of a fill
  is evicted *when the fill arrives* (lazy eviction).  If the eviction
  cannot be handed to the write buffer, the bank stops draining its
  StoragePort, closing the deadlock cycle described in
  :mod:`repro.gpu.cache.writebuffer`.
* ``buggy=False`` — the patched behaviour: the victim is evicted *when
  the miss is issued* (eager eviction), so an arriving fill always has a
  free way and the StoragePort always drains.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ...akita.component import TickingComponent
from ...akita.engine import Engine
from ...akita.ticker import GHZ
from ..mem import (
    CACHE_LINE_SIZE,
    DataReadyRsp,
    EvictionReq,
    FetchedData,
    MemReq,
    MemRsp,
    ReadReq,
    WriteDoneRsp,
    WriteReq,
)
from .mshr import MSHR
from .tags import SetAssocTags


class L2Cache(TickingComponent):
    """One bank of the chiplet-shared L2."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 size_bytes: int = 256 * 1024, ways: int = 8,
                 mshr_capacity: int = 32, hit_latency: int = 4,
                 top_buf: int = 16, storage_buf: int = 4, wb_buf: int = 4,
                 eviction_staging: int = 1, width: int = 4,
                 buggy: bool = False):
        super().__init__(name, engine, freq)
        self.top_port = self.add_port("TopPort", top_buf)
        self.storage_port = self.add_port("StoragePort", storage_buf)
        self.wb_port = self.add_port("ToWB", wb_buf)
        self.tags = SetAssocTags(size_bytes, ways)
        self.mshr = MSHR(mshr_capacity)
        self.hit_latency = hit_latency
        self.width = width
        self.buggy = buggy
        self.eviction_staging_capacity = eviction_staging
        self.eviction_staging: List[int] = []  # victim line addresses
        self._wb_in_port = None  # WriteBuffer.InPort, set by connect()
        self._respond_queue: List[Tuple[float, int, MemRsp]] = []
        self._seq = 0
        self.num_reads = 0
        self.num_writes = 0
        self.blocked_on: Optional[str] = None  # diagnosis aid (RTM-visible)

    def connect_write_buffer(self, wb_in_port) -> None:
        self._wb_in_port = wb_in_port

    # ------------------------------------------------------------------
    @property
    def transactions(self) -> int:
        """Outstanding misses (monitored value)."""
        return self.mshr.size

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        # Enter a sub-step only when its queue holds work.
        progress = False
        if self.eviction_staging:
            progress = self._drain_eviction_staging()
        if self._respond_queue:
            progress |= self._send_responses()
        if self.storage_port.incoming:
            progress |= self._process_fills()
        if self.mshr.unsent:
            progress |= self._issue_pending_fetches()
        if self.top_port.incoming:
            progress |= self._process_top()
        if (self._respond_queue and not progress
                and self._respond_queue[0][0] > self._engine._now + 1e-15):
            # Head response not ready yet; ready-but-blocked responses
            # wait for a notify_available wake instead of busy-polling.
            self.tick_at(self._respond_queue[0][0])
        return progress

    # -- eviction path -----------------------------------------------------
    def _drain_eviction_staging(self) -> bool:
        progress = False
        while self.eviction_staging:
            victim = self.eviction_staging[0]
            eviction = EvictionReq(self._wb_in_port, victim)
            if not self.wb_port.send(eviction):
                self.blocked_on = ("send eviction to write buffer "
                                   "(InPort full)")
                break
            self.eviction_staging.pop(0)
            self.blocked_on = None
            progress = True
        return progress

    def _stage_eviction(self, victim_addr: int) -> None:
        self.eviction_staging.append(victim_addr)

    def _staging_has_room(self) -> bool:
        return len(self.eviction_staging) < self.eviction_staging_capacity

    # -- fill path ------------------------------------------------------------
    def _process_fills(self) -> bool:
        progress = False
        items = self.storage_port.incoming
        for _ in range(self.width):
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, FetchedData):
                break
            if self.buggy:
                # Lazy eviction: a fill may displace a dirty victim, so
                # the bank refuses the fill until staging has room.
                # This is one half of the deadlock cycle.
                if not self._staging_has_room():
                    self.blocked_on = ("accept fetched data "
                                       "(eviction staging full)")
                    break
                self.storage_port.retrieve_incoming()
                victim = self.tags.fill(msg.address)
                if victim is not None and victim.dirty:
                    self._stage_eviction(victim.line_addr)
            else:
                # Eager eviction already made room at miss time.
                self.storage_port.retrieve_incoming()
            self._complete_miss(msg.address)
            progress = True
        return progress

    def _complete_miss(self, line_addr: int) -> None:
        entry = self.mshr.lookup(line_addr)
        if entry is None:
            return
        self.mshr.release(line_addr)
        for req in entry.waiting:
            if isinstance(req, ReadReq):
                self._queue_response(
                    DataReadyRsp(req.src, req.id, req.access_bytes))
            else:
                self.tags.mark_dirty(line_addr)
                self._queue_response(WriteDoneRsp(req.src, req.id))

    # -- request path ------------------------------------------------------------
    def _process_top(self) -> bool:
        progress = False
        items = self.top_port.incoming
        for _ in range(self.width):
            msg = items[0] if items else None
            if msg is None or not isinstance(msg, MemReq):
                break
            if not self._handle_request(msg):
                break
            progress = True
        return progress

    def _handle_request(self, req: MemReq) -> bool:
        """Returns True if the request was consumed from the top buffer."""
        line = req.line_addr
        in_flight = self.mshr.lookup(line)
        if in_flight is not None:
            self.top_port.retrieve_incoming()
            in_flight.waiting.append(req)
            self._count(req)
            return True
        if self.tags.lookup(line):
            self.top_port.retrieve_incoming()
            self._count(req)
            if isinstance(req, ReadReq):
                self._queue_response(
                    DataReadyRsp(req.src, req.id, req.access_bytes))
            else:
                self.tags.mark_dirty(line)
                self._queue_response(WriteDoneRsp(req.src, req.id))
            return True
        # Miss: allocate an MSHR entry and fetch through the write buffer.
        if self.mshr.full:
            return False
        if not self.buggy:
            # Eager eviction (the fix): make room for the future fill
            # now; stall if the staging buffer has no space or every
            # way in the set has an in-flight fetch.
            if not self._staging_has_room():
                self.blocked_on = ("allocate miss "
                                   "(eviction staging full)")
                return False
            evictable = lambda addr: self.mshr.lookup(addr) is None
            if not self.tags.can_fill(line, evictable):
                self.blocked_on = "allocate miss (set conflict)"
                return False
            victim = self.tags.fill(line, evictable=evictable)
            if victim is not None and victim.dirty:
                self._stage_eviction(victim.line_addr)
        self.top_port.retrieve_incoming()
        self._count(req)
        entry = self.mshr.allocate(line)
        entry.waiting.append(req)
        self._try_send_fetch(entry)
        return True

    def _count(self, req: MemReq) -> None:
        if isinstance(req, ReadReq):
            self.num_reads += 1
        else:
            self.num_writes += 1

    def _issue_pending_fetches(self) -> bool:
        progress = False
        for entry in self.mshr.entries:
            if entry.fetch_sent:
                continue
            if not self._try_send_fetch(entry):
                break
            progress = True
        return progress

    def _try_send_fetch(self, entry) -> bool:
        fetch = ReadReq(self._wb_in_port, entry.key, CACHE_LINE_SIZE)
        if not self.wb_port.send(fetch):
            self.blocked_on = "send fetch to write buffer (InPort full)"
            return False
        entry.fetch_sent = True
        self.mshr.unsent -= 1
        self.blocked_on = None
        return True

    # -- responses -----------------------------------------------------------
    def _queue_response(self, rsp: MemRsp) -> None:
        ready = self._engine._now + self.hit_latency / self.freq
        heapq.heappush(self._respond_queue, (ready, self._seq, rsp))
        self._seq += 1

    def _send_responses(self) -> bool:
        progress = False
        now = self._engine._now
        for _ in range(self.width):
            if (not self._respond_queue
                    or self._respond_queue[0][0] > now + 1e-15):
                break
            rsp = self._respond_queue[0][2]
            if not self.top_port.send(rsp):
                break
            heapq.heappop(self._respond_queue)
            progress = True
        return progress
