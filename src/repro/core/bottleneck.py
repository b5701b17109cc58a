"""The bottleneck analyzer (paper §IV-C, Figure 3 and Figure 4).

Takes a snapshot of every buffer in the simulation and lists the most
occupied ones.  A buffer that is *persistently* at the top of this list
marks the component that drains it as a likely performance bottleneck;
after a hang, any non-empty buffer marks a component that could not make
progress.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List

from ..akita.buffer import Buffer
from .inspector import discover_buffers

SORT_KEYS = ("percent", "size")


@dataclass
class BufferRow:
    """One row of the analyzer table."""

    name: str
    size: int
    capacity: int
    pinned: bool = False  # held at capacity by a fault injector

    @property
    def percent(self) -> float:
        if self.pinned:
            return 1.0
        return self.size / self.capacity if self.capacity else 0.0

    def to_dict(self) -> Dict[str, Any]:
        # "pinned" lets /api/buffers clients tell a fault-pinned buffer
        # (held at capacity by the injector) from a genuinely full one.
        return {"buffer": self.name, "size": self.size,
                "capacity": self.capacity,
                "percent": round(self.percent, 4),
                "pinned": self.pinned}


class BufferAnalyzer:
    """Snapshots buffer levels across registered components.

    Registering a component only notes it; its buffers are discovered
    at the first read after it (:meth:`snapshot`, :meth:`non_empty`,
    :attr:`buffer_count`), so a monitor whose bottleneck table nobody
    opens never pays for the reflection walk.
    """

    def __init__(self) -> None:
        self._components: List[Any] = []
        #: How many of ``_components`` discovery has walked.  Advanced
        #: under ``_lock``, and only after that component's buffers are
        #: in ``_buffers``: a reader that sees it caught up sees them.
        self._walked = 0
        self._lock = threading.Lock()
        self._buffers: List[Buffer] = []
        self._known: set = set()

    def register_component(self, component: Any) -> None:
        """Track *component*'s buffers from the next read on."""
        self._components.append(component)

    def _discovered(self) -> List[Buffer]:
        """Every registered component's buffers, walking the components
        registered since the last read first."""
        if self._walked < len(self._components):
            with self._lock:
                while self._walked < len(self._components):
                    for buf in discover_buffers(
                            self._components[self._walked]):
                        if id(buf) not in self._known:
                            self._known.add(id(buf))
                            self._buffers.append(buf)
                    self._walked += 1
        return self._buffers

    @property
    def buffer_count(self) -> int:
        return len(self._discovered())

    def snapshot(self, sort: str = "percent",
                 top: int = 0,
                 include_empty: bool = False) -> List[BufferRow]:
        """The Figure 3 table: most occupied buffers first.

        Parameters
        ----------
        sort:
            ``"percent"`` (fullness ratio) or ``"size"`` (element count),
            the two sort modes of the paper's panel.
        top:
            Truncate to the first *top* rows (0 = all).
        include_empty:
            Keep empty buffers in the list (useful in tests; the panel
            hides them).
        """
        if sort not in SORT_KEYS:
            raise ValueError(f"sort must be one of {SORT_KEYS}")
        rows = [BufferRow(b.name, b.size, b.capacity,
                          getattr(b, "pinned", False))
                for b in self._discovered()
                if include_empty or b.size > 0
                or getattr(b, "pinned", False)]
        key = (lambda r: (r.percent, r.size)) if sort == "percent" \
            else (lambda r: (r.size, r.percent))
        rows.sort(key=key, reverse=True)
        if top:
            rows = rows[:top]
        return rows

    def non_empty(self) -> List[BufferRow]:
        """Buffers with content — the hang-analysis view of case
        study 2 (after a deadlock every one of these marks a stuck
        component)."""
        return self.snapshot(sort="size")
