"""The event queue: a priority queue ordered by (time, secondary, seq).

Ordering rules
--------------
1. Earlier virtual time first.
2. At equal time, primary events before secondary events.
3. At equal time and class, insertion order into *this queue* wins.
   The tie-break is a per-queue sequence counter, not anything
   process-global: a counter shared with every other engine (and
   monitor thread) in the process would let two otherwise identical
   runs interleave differently and schedule same-tick events in
   different orders.  The per-queue counter depends only on what was
   pushed here, in what order — which is itself deterministic — so runs
   are bit-for-bit reproducible, and a sharded simulation can be
   checked for equivalence against a monolithic one.

Threads
-------
Any thread may push while one thread pops, without a lock.  An entry is
``(time, secondary, seq, event)``; *seq* is minted by
``next(itertools.count)``, one C call that cannot hand the same number
to two threads, so no two entries ever tie on their first three fields
and a comparison never reaches the (unorderable) event.  With only
floats, bools and ints compared, ``heappush`` and ``heappop`` run no
Python code and each completes under the interpreter lock as a whole.
:class:`~repro.akita.engine.Engine` relies on exactly this and works on
``_heap`` and ``_seq`` directly from its event loop.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import List, Optional, Tuple

from .event import Event


class EventQueue:
    """A deterministic min-heap of events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, bool, int, Event]] = []
        self._seq = itertools.count(1)

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        """Insert *event*."""
        heappush(self._heap,
                 (event.time, event.secondary, next(self._seq), event))

    def pop(self) -> Event:
        """Remove and return the earliest event.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        return heappop(self._heap)[3]

    def next_time(self) -> Optional[float]:
        """Virtual time of the earliest event, or ``None`` if empty."""
        # Not "if heap: heap[0]": the popping thread may take the last
        # entry between the two.
        try:
            return self._heap[0][0]
        except IndexError:
            return None

    def clear(self) -> None:
        """Drop all pending events (used when aborting a simulation)."""
        self._heap.clear()

    # -- pickling (checkpoint/restore) ---------------------------------
    def __getstate__(self) -> dict:
        # The counter travels as the plain int it will hand out next
        # (reading it skips one number, which only needs to be unique
        # and increasing): pickling itertools objects is deprecated.
        return {"_heap": self._heap, "_seq": next(self._seq)}

    def __setstate__(self, state: dict) -> None:
        self._heap = state["_heap"]
        self._seq = itertools.count(state["_seq"])
