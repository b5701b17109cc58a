"""Kernel descriptors and run-time kernel state.

This model is *trace-driven*: a kernel is a grid of workgroups, each made
of wavefronts, and each wavefront is a generator of timing ops:

* ``("compute", n)`` — busy for *n* cycles;
* ``("load", addr, nbytes)`` — issue a read to the memory hierarchy;
* ``("store", addr, nbytes)`` — issue a write.

The workload modules (:mod:`repro.workloads`) supply programs whose
address streams have the locality/striding of the real OpenCL kernels.
AkitaRTM never looks at instructions — only at component state and the
progress counts kept in :class:`KernelState` — so this preserves
everything the paper's analyses observe (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Tuple

#: One wavefront op. ("compute", cycles) | ("load"|"store", addr, nbytes)
Op = Tuple
#: (workgroup id, wavefront id) -> op stream
ProgramFn = Callable[[int, int], Iterator[Op]]


@dataclass(frozen=True, slots=True)
class KernelDescriptor:
    """Static description of a kernel grid."""

    name: str
    num_workgroups: int
    wavefronts_per_wg: int
    program: ProgramFn

    def __post_init__(self) -> None:
        if self.num_workgroups <= 0 or self.wavefronts_per_wg <= 0:
            raise ValueError("kernel grid dimensions must be positive")

    def __reduce__(self):
        """Checkpoints drop the program: it is a (usually nested)
        generator function.  :func:`repro.checkpoint.load_checkpoint`
        reinstalls it from the workload by kernel name."""
        return type(self), (self.name, self.num_workgroups,
                            self.wavefronts_per_wg, None)

    def install_program(self, program: ProgramFn) -> None:
        """Reattach *program* after a restore (frozen-dataclass safe)."""
        object.__setattr__(self, "program", program)


@dataclass(slots=True)
class KernelState:
    """Progress of one kernel launch, in units of workgroups.

    This is the backing store of AkitaRTM's default progress bar: the
    paper shows kernel progress "in terms of how many blocks have
    completed execution" with finished / executing / not-started
    segments.
    """

    descriptor: KernelDescriptor
    total: int = 0
    completed: int = 0
    ongoing: int = 0

    def __post_init__(self) -> None:
        if self.total == 0:
            self.total = self.descriptor.num_workgroups

    @property
    def not_started(self) -> int:
        return self.total - self.completed - self.ongoing

    @property
    def done(self) -> bool:
        return self.completed >= self.total

    def start_wg(self) -> None:
        self.ongoing += 1

    def finish_wg(self) -> None:
        self.ongoing -= 1
        self.completed += 1


@dataclass(slots=True)
class MemCopyState:
    """Progress of one host↔device memory copy, in bytes."""

    total_bytes: int
    copied_bytes: int = 0
    direction: str = "h2d"

    @property
    def done(self) -> bool:
        return self.copied_bytes >= self.total_bytes
