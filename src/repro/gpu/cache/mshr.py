"""Miss Status Holding Registers.

An MSHR entry tracks one outstanding cache-line fetch (keyed by line address); requests to a line
that is already being fetched *coalesce* onto the existing entry instead
of issuing a second fetch.  A full MSHR is the canonical reason an L1
cache stops accepting requests — the paper's Figure 5 shows the L1
transaction count pinned at the MSHR capacity (16) when this happens.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ...akita.errors import BufferError_, ConfigurationError


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
