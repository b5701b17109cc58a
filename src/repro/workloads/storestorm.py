"""StoreStorm — a synthetic diagnostic workload.

Not one of the paper's six benchmarks: this is the write-heavy,
set-conflicting store pattern that deterministically triggers the L2
write-buffer deadlock of case study 2 on a bug-enabled platform
(``l2_write_buffer_bug=True`` with tight write-buffer capacities).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.addressing import PAGE_BYTES
from ..gpu.kernel import KernelDescriptor
from ..gpu.platform import GPUPlatformConfig
from .base import Workload


@dataclass
class StoreStorm(Workload):
    """Conflicting store storm aimed at a small L2."""

    num_workgroups: int = 16
    wavefronts_per_wg: int = 4
    stores_per_wavefront: int = 96
    stride: int = 512
    #: When > 0, remap every store to a page owned by chiplet
    #: ``wg % page_locality`` — with ``page_locality == num_chiplets``
    #: each workgroup stores only to its own chiplet's memory (the
    #: driver places wg *i* on chiplet ``i % num_chiplets``).  The
    #: default 0 keeps the original pattern, whose ~(C-1)/C remote
    #: stores hammer the RDMA/switch path.
    page_locality: int = 0

    name = "storestorm"

    def kernel(self) -> KernelDescriptor:
        n = self.stores_per_wavefront
        stride = self.stride
        locality = self.page_locality

        def program(wg: int, wf: int):
            for i in range(n):
                addr = ((wg * 31 + wf * 17 + i * 3) * stride) % (1 << 22)
                if locality:
                    page = addr // PAGE_BYTES
                    page = page - page % locality + wg % locality
                    addr = page * PAGE_BYTES + addr % PAGE_BYTES
                yield ("store", addr, 4)

        return KernelDescriptor(self.name, self.num_workgroups,
                                self.wavefronts_per_wg, program)

    def input_bytes(self) -> int:
        return 0

    def output_bytes(self) -> int:
        return 0

    @staticmethod
    def trigger_config(buggy: bool = True) -> GPUPlatformConfig:
        """The platform configuration under which this workload
        reliably deadlocks a bug-enabled L2 write buffer (and completes
        on the patched one)."""
        return GPUPlatformConfig.small(
            num_chiplets=1, l2_write_buffer_bug=buggy,
            l2_size_bytes=1024, l2_ways=2, wb_queue_capacity=2,
            wb_in_buf=1, wb_width=1, l2_storage_buf=1,
            dram_latency_cycles=20, max_outstanding_per_wf=16)
