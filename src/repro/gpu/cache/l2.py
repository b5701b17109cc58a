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

from typing import List, Optional

from ...akita.engine import Engine
from ...akita.ticker import GHZ
from ..mem import CACHE_LINE_SIZE, EvictionReq, FetchedData, MemReq, ReadReq
from .mshr import CacheBank


class L2Cache(CacheBank):
    """One bank of the chiplet-shared L2."""

    def __init__(self, name: str, engine: Engine, freq: float = GHZ,
                 size_bytes: int = 256 * 1024, ways: int = 8,
                 mshr_capacity: int = 32, hit_latency: int = 4,
                 top_buf: int = 16, storage_buf: int = 4, wb_buf: int = 4,
                 eviction_staging: int = 1, width: int = 4,
                 buggy: bool = False):
        super().__init__(name, engine, freq, size_bytes, ways,
                         mshr_capacity, hit_latency, top_buf, width)
        self.storage_port = self.add_port("StoragePort", storage_buf)
        self.wb_port = self.add_port("ToWB", wb_buf)
        self.buggy = buggy
        self.eviction_staging_capacity = eviction_staging
        self.eviction_staging: List[int] = []  # victim line addresses
        self._wb_in_port = None  # WriteBuffer.InPort, set by connect()
        self.blocked_on: Optional[str] = None  # diagnosis aid (RTM-visible)

    def connect_write_buffer(self, wb_in_port) -> None:
        self._wb_in_port = wb_in_port

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
            if not isinstance(req, ReadReq):
                self.tags.mark_dirty(line_addr)
            self._queue_response(req.reply(req.src))

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
            if isinstance(msg, ReadReq):
                self.num_reads += 1
            else:
                self.num_writes += 1
            progress = True
        return progress

    def _handle_request(self, req: MemReq) -> bool:
        """Returns True if the request was consumed from the top buffer."""
        line = req.line_addr
        in_flight = self.mshr.lookup(line)
        if in_flight is not None:
            self.top_port.retrieve_incoming()
            in_flight.waiting.append(req)
            return True
        if self.tags.lookup(line):
            self.top_port.retrieve_incoming()
            if not isinstance(req, ReadReq):
                self.tags.mark_dirty(line)
            self._queue_response(req.reply(req.src))
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
        entry = self.mshr.allocate(line)
        entry.waiting.append(req)
        self._try_send(entry)
        return True

    def _try_send(self, entry) -> bool:
        fetch = ReadReq(self._wb_in_port, entry.key, CACHE_LINE_SIZE)
        if not self.wb_port.send(fetch):
            self.blocked_on = "send fetch to write buffer (InPort full)"
            return False
        entry.fetch_sent = True
        self.mshr.unsent -= 1
        self.blocked_on = None
        return True
