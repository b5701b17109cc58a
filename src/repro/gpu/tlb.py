"""A small fully-associative TLB with LRU replacement.

The address translator consults this structure; a miss costs a fixed
page-walk penalty (we model the walk as latency rather than as a separate
page-walker component — a documented simplification that preserves the
translator's observable behaviour: bursts that drain quickly, per the
paper's Figure 5(d)).
"""

from __future__ import annotations

from collections import OrderedDict

from ..akita.errors import ConfigurationError
from .addressing import PAGE_BYTES


class TLB:
    """Page-granular translation cache."""

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ConfigurationError("TLB capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, addr: int) -> bool:
        """True on hit; refreshes recency.  A miss does *not* install the
        translation — call :meth:`fill` once the walk completes."""
        page = addr // PAGE_BYTES
        if page in self._entries:
            self.hits += 1
            self._entries.move_to_end(page)
            return True
        self.misses += 1
        return False

    def fill(self, addr: int) -> None:
        page = addr // PAGE_BYTES
        if page in self._entries:
            self._entries.move_to_end(page)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[page] = True

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
