"""Set-associative tag directory with LRU replacement.

Pure bookkeeping (no timing): caches call :meth:`lookup` on the pipeline
and :meth:`fill` when data returns; :meth:`fill` reports the victim so the
cache can generate a writeback for dirty lines.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ..mem import CACHE_LINE_SIZE
from ...akita.errors import BufferError_, ConfigurationError


@dataclass
class Victim:
    """An evicted line: its address and whether it must be written back."""

    line_addr: int
    dirty: bool


class SetAssocTags:
    """Tag array of ``num_sets`` sets × ``ways`` ways of 64 B lines."""

    def __init__(self, size_bytes: int, ways: int):
        if size_bytes % (ways * CACHE_LINE_SIZE) != 0:
            raise ConfigurationError(
                f"cache size {size_bytes} not divisible into {ways} ways "
                f"of {CACHE_LINE_SIZE}B lines")
        self.ways = ways
        self.num_sets = size_bytes // (ways * CACHE_LINE_SIZE)
        if self.num_sets == 0:
            raise ConfigurationError("cache too small for one set")
        # Each set maps line_addr -> dirty flag, in LRU order
        # (oldest first).
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_of(self, line_addr: int) -> OrderedDict:
        index = (line_addr // CACHE_LINE_SIZE) % self.num_sets
        return self._sets[index]

    def lookup(self, line_addr: int, touch: bool = True) -> bool:
        """True on hit.  ``touch`` refreshes LRU recency."""
        s = self._set_of(line_addr)
        if line_addr in s:
            self.hits += 1
            if touch:
                s.move_to_end(line_addr)
            return True
        self.misses += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Presence check without counting a hit/miss."""
        return line_addr in self._set_of(line_addr)

    def fill(self, line_addr: int, dirty: bool = False,
             evictable=None) -> Optional[Victim]:
        """Insert a line; return the victim if one had to be evicted.

        ``evictable`` optionally filters victim candidates (e.g. a cache
        must not evict a line with an active MSHR entry).  Callers using
        a filter must check :meth:`can_fill` first; filling with no
        eligible victim raises.
        """
        s = self._set_of(line_addr)
        if line_addr in s:
            s[line_addr] = s[line_addr] or dirty
            s.move_to_end(line_addr)
            return None
        victim = None
        if len(s) >= self.ways:
            old_addr = self._pick_victim(s, evictable)
            if old_addr is None:
                raise BufferError_(
                    f"no evictable way for line {line_addr:#x}")
            victim = Victim(old_addr, s.pop(old_addr))
        s[line_addr] = dirty
        return victim

    def can_fill(self, line_addr: int, evictable=None) -> bool:
        """True if :meth:`fill` would succeed (room or eligible victim)."""
        s = self._set_of(line_addr)
        if line_addr in s or len(s) < self.ways:
            return True
        return self._pick_victim(s, evictable) is not None

    @staticmethod
    def _pick_victim(s: OrderedDict, evictable) -> Optional[int]:
        for addr in s:  # oldest (LRU) first
            if evictable is None or evictable(addr):
                return addr
        return None

    def mark_dirty(self, line_addr: int) -> None:
        s = self._set_of(line_addr)
        if line_addr in s:
            s[line_addr] = True
            s.move_to_end(line_addr)

    def invalidate(self, line_addr: int) -> None:
        self._set_of(line_addr).pop(line_addr, None)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
