"""Progress bars (paper §IV-C, "Simulation progress monitoring").

Each bar has three segments — finished (green), currently executing
(blue), and not started (gray).  Bars can hold static counts updated
through the monitor API, or be *live*: backed by a provider object such
as a :class:`~repro.gpu.kernel.KernelState` or
:class:`~repro.gpu.kernel.MemCopyState`, read at render time so the
simulation never has to call back into the monitor.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

#: () -> (completed, ongoing, total)
ProgressProvider = Callable[[], Tuple[int, int, int]]


class ProgressBar:
    """One three-segment progress bar."""

    def __init__(self, name: str, total: int = 0,
                 provider: Optional[ProgressProvider] = None):
        #: Numbered by the :class:`~repro.core.monitor.Monitor` that
        #: keeps the bar.
        self.id = 0
        self.name = name
        self._total = total
        self._completed = 0
        self._ongoing = 0
        self._provider = provider

    # -- updates (static bars) ------------------------------------------
    def update(self, completed: int, ongoing: int = 0,
               total: Optional[int] = None) -> None:
        """Set the current counts (monitor API ``UpdateProgressBar``)."""
        self._completed = completed
        self._ongoing = ongoing
        if total is not None:
            self._total = total

    # -- reads -----------------------------------------------------------
    @property
    def counts(self) -> Tuple[int, int, int]:
        """(completed, ongoing, total), from the provider if live."""
        if self._provider is not None:
            return self._provider()
        return self._completed, self._ongoing, self._total

    @property
    def completed(self) -> int:
        return self.counts[0]

    @property
    def ongoing(self) -> int:
        return self.counts[1]

    @property
    def total(self) -> int:
        return self.counts[2]

    @property
    def not_started(self) -> int:
        completed, ongoing, total = self.counts
        return max(0, total - completed - ongoing)

    def to_dict(self) -> Dict:
        completed, ongoing, total = self.counts
        return {
            "id": self.id,
            "name": self.name,
            "completed": completed,
            "ongoing": ongoing,
            "not_started": max(0, total - completed - ongoing),
            "total": total,
        }

    @classmethod
    def for_kernel(cls, kernel_state) -> "ProgressBar":
        """The paper's default bar: kernel progress in thread blocks."""
        name = f"kernel:{kernel_state.descriptor.name}"
        return cls(name, provider=lambda: (kernel_state.completed,
                                           kernel_state.ongoing,
                                           kernel_state.total))

    @classmethod
    def for_memcopy(cls, copy_state) -> "ProgressBar":
        """Bytes-copied bar for a DMA transfer."""
        name = f"memcopy:{copy_state.direction}"
        return cls(name, provider=lambda: (copy_state.copied_bytes, 0,
                                           copy_state.total_bytes))
