"""Global address space layout for multi-chiplet GPUs.

Pages of global memory are interleaved round-robin across chiplets, as in
MCM-GPU-style designs: page *p* lives on chiplet ``p % num_chiplets``.
An access from chiplet *i* to a page owned by chiplet *j ≠ i* misses L1
and is routed through chiplet *i*'s RDMA engine — the traffic pattern
behind case study 1's RDMA bottleneck.

Within a chiplet, cache lines are interleaved across L2/DRAM banks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mem import CACHE_LINE_SIZE

#: The one page size: the unit of chiplet interleaving and of a TLB entry.
PAGE_BYTES = 4096


@dataclass(frozen=True)
class AddressMapper:
    """Pure address-arithmetic helper shared by caches, RDMA and DRAM."""

    num_chiplets: int
    banks_per_chiplet: int = 1

    def chiplet_of(self, addr: int) -> int:
        """Chiplet that owns the page containing *addr*."""
        return (addr // PAGE_BYTES) % self.num_chiplets

    def is_local(self, addr: int, chiplet_id: int) -> bool:
        return self.chiplet_of(addr) == chiplet_id

    def bank_of(self, addr: int) -> int:
        """L2/DRAM bank (within the owning chiplet) for *addr*."""
        return (addr // CACHE_LINE_SIZE) % self.banks_per_chiplet
