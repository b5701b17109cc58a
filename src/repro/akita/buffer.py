"""Bounded message buffers.

Buffers are the central observable of AkitaRTM's bottleneck analysis: a
buffer that is persistently full marks the component that drains it as a
likely performance bottleneck (paper §IV-C, Figure 4), and non-empty
buffers after the engine runs dry mark the components involved in a hang
(case study 2).

Every buffer has a hierarchical ``name`` (e.g.
``GPU[1].SA[3].L1VROB[0].TopPort.Buf``) so the analyzer can report where
it lives without holding references to the owning component.

A buffer owns its flow control: :attr:`Buffer.free_slots`, the one
admission rule, counts the slots reserved for messages in flight.  Its
port fills and drains it (``Port.deliver``, ``Port.retrieve_incoming``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterator

from .errors import ConfigurationError


class Buffer:
    """A bounded FIFO queue of messages (or any payload).

    The monitor discovers instances of this class by reflection; any
    object reachable from a registered component that is a :class:`Buffer`
    shows up in the bottleneck analyzer.
    """

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ConfigurationError(
                f"buffer {name!r} needs a positive capacity, got {capacity}")
        self.name = name
        self._capacity = int(capacity)
        self._items: Deque[Any] = deque()
        self._pinned = False
        #: Slots promised to messages in flight: a connection's send
        #: takes one, the delivery (or an injected drop) gives it back.
        self._reserved = 0

    # -- capacity queries ------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def size(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    @property
    def fullness(self) -> float:
        """Occupancy in [0, 1]; the analyzer's *percent* sort key.

        A pinned buffer reports 1.0 — it is at capacity by decree, and
        the bottleneck analyzer should finger it exactly as if real
        traffic had filled it.
        """
        if self._pinned:
            return 1.0
        return len(self._items) / self._capacity

    @property
    def free_slots(self) -> int:
        """Messages that may still be admitted — the one admission rule:
        0 while pinned, else capacity minus queued and reserved."""
        if self._pinned:
            return 0
        return self._capacity - len(self._items) - self._reserved

    # -- fault injection ---------------------------------------------------
    @property
    def pinned(self) -> bool:
        """True while a fault injector holds this buffer at capacity."""
        return self._pinned

    def pin(self, pinned: bool = True) -> None:
        """Force the buffer to report itself full (``pinned=True``) so
        every sender sees permanent backpressure, or release it.

        Pinning acts at the flow-control level only (:attr:`free_slots`):
        new admissions are refused, but messages whose slot was reserved
        before the pin still land, and queued items may still be
        retrieved.  This is how the fault injector
        freezes a component's intake without corrupting in-flight
        traffic."""
        self._pinned = bool(pinned)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Buffer {self.name} {self.size}/{self.capacity}>"
