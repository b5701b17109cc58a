"""Miss Status Holding Registers, and the cache bank built around them.

An MSHR entry tracks one outstanding cache-line fetch (keyed by line address); requests to a line
that is already being fetched *coalesce* onto the existing entry instead
of issuing a second fetch.  A full MSHR is the canonical reason an L1
cache stops accepting requests — the paper's Figure 5 shows the L1
transaction count pinned at the MSHR capacity (16) when this happens.

:class:`CacheBank` is what L1 and L2 share: the top port, tags and MSHR,
the hit-latency response queue, and the retry of misses whose fetch was
refused.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ...akita.component import TickingComponent
from ...akita.engine import Engine
from ...akita.errors import BufferError_, ConfigurationError
from ..mem import MemRsp
from .tags import SetAssocTags


class MSHREntry:
    """One outstanding line fetch and the requests waiting on it."""

    __slots__ = ("key", "waiting", "fetch_sent")

    def __init__(self, key: int):
        self.key = key
        self.waiting: List[object] = []   # upstream requests to answer
        self.fetch_sent = False           # downstream fetch issued yet?


class MSHR:
    """A bank of miss-status holding registers."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigurationError("MSHR capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[int, MSHREntry] = {}
        # Attributes, not properties: a cache's tick reads them without
        # a frame.  Whoever sets an entry's fetch_sent decrements unsent.
        self.full = False
        self.unsent = 0

    # -- queries -----------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: int) -> Optional[MSHREntry]:
        return self._entries.get(key)

    @property
    def entries(self) -> List[MSHREntry]:
        return list(self._entries.values())

    # -- mutation ------------------------------------------------------------
    def allocate(self, key: int) -> MSHREntry:
        """Create an entry for *key*.

        Raises
        ------
        BufferError_
            If the MSHR is full or the line already has an entry (callers
            must coalesce via :meth:`lookup` first).
        """
        if self.full:
            raise BufferError_("MSHR full")
        if key in self._entries:
            raise BufferError_(f"duplicate MSHR entry for {key!r}")
        entry = MSHREntry(key)
        self._entries[key] = entry
        self.full = len(self._entries) >= self.capacity
        self.unsent += 1
        return entry

    def release(self, key: int) -> MSHREntry:
        """Remove and return the entry for *key* (fetch completed)."""
        entry = self._entries.pop(key)
        self.full = False
        return entry


class CacheBank(TickingComponent):
    """A cache's tags, MSHR and response pipeline.

    A subclass adds its downstream ports after the bank's ``TopPort``
    and defines ``_try_send(entry)``: send the miss of one MSHR entry
    below, and on success set ``entry.fetch_sent`` and decrement
    ``mshr.unsent``.
    """

    def __init__(self, name: str, engine: Engine, freq: float,
                 size_bytes: int, ways: int, mshr_capacity: int,
                 hit_latency: int, top_buf: int):
        super().__init__(name, engine, freq)
        self.top_port = self.add_port("TopPort", top_buf)
        self.tags = SetAssocTags(size_bytes, ways)
        self.mshr = MSHR(mshr_capacity)
        self.hit_latency = hit_latency
        self.width = 4
        # (ready_time, seq, response) for hit-latency modelling
        self._respond_queue: List[Tuple[float, int, MemRsp]] = []
        self._seq = 0
        self.num_reads = 0
        self.num_writes = 0

    @property
    def transactions(self) -> int:
        """Outstanding misses (monitored value) — pins at the MSHR
        capacity when the memory below is the bottleneck."""
        return self.mshr.size

    def _issue_pending_fetches(self) -> bool:
        """Retry, in allocation order, the misses a refused send left
        unsent."""
        progress = False
        for entry in self.mshr.entries:
            if entry.fetch_sent:
                continue
            if not self._try_send(entry):
                break
            progress = True
        return progress

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
