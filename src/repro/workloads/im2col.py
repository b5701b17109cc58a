"""im2col — Image-to-Column conversion (DNN suite).

The workload of case study 1 and the problematic simulation in the user
study.  The paper's parameters: 24×24 images, 6 feature-map channels,
batch size 640, on a 4-chiplet MCM GPU.

Access pattern: each output column gathers a convolution window —
strided reads across rows and channels of the input image (poor spatial
locality, scattered across pages and therefore across chiplets), plus a
dense sequential write of the column matrix.  This is what drives the
L1 MSHRs to saturation and piles transactions into the RDMA engines.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.kernel import KernelDescriptor
from .base import WORD, Workload


@dataclass
class Im2Col(Workload):
    """im2col over a batch of multi-channel images."""

    image_width: int = 24
    image_height: int = 24
    channels: int = 6
    batch: int = 640
    kernel_size: int = 3
    wavefronts_per_wg: int = 4
    images_per_wg: int = 4
    #: Columns actually traced per wavefront.  The real kernel touches
    #: every column; tracing a stride-sampled subset keeps event counts
    #: tractable while preserving the access pattern (gathers stay
    #: strided and page-scattered).  ``None`` traces all columns.
    cols_per_wavefront: int | None = 8

    name = "im2col"

    def __post_init__(self) -> None:
        if min(self.image_width, self.image_height, self.channels,
               self.batch, self.kernel_size) <= 0:
            raise ValueError("im2col needs positive sizes")

    @property
    def image_bytes(self) -> int:
        return (self.image_width * self.image_height * self.channels
                * WORD)

    @property
    def out_cols(self) -> int:
        return ((self.image_width - self.kernel_size + 1)
                * (self.image_height - self.kernel_size + 1))

    @property
    def num_workgroups(self) -> int:
        return max(1, self.batch // self.images_per_wg)

    def kernel(self) -> KernelDescriptor:
        w, h, c = self.image_width, self.image_height, self.channels
        k = self.kernel_size
        img_bytes = self.image_bytes
        out_base = self.batch * img_bytes
        col_bytes = k * k * c * WORD
        images_per_wg = self.images_per_wg
        wfs = self.wavefronts_per_wg
        cols = self.out_cols

        limit = self.cols_per_wavefront

        def program(wg: int, wf: int):
            # Each wavefront handles a slice of the output columns of
            # this workgroup's images.
            for local_img in range(images_per_wg):
                img = wg * images_per_wg + local_img
                img_base = img * img_bytes
                col_slice = range(wf, cols, wfs)
                if limit is not None:
                    col_slice = list(col_slice)[:limit]
                for col in col_slice:
                    x = col % (w - k + 1)
                    y = col // (w - k + 1)
                    # Gather the k x k window from every channel: one
                    # strided read per window row per channel.
                    for ch in range(c):
                        for ky in range(k):
                            addr = img_base + ((ch * h + y + ky) * w
                                               + x) * WORD
                            yield ("load", addr, k * WORD)
                    yield ("compute", 2)
                    yield ("store",
                           out_base + (img * cols + col) * col_bytes,
                           col_bytes)

        return KernelDescriptor(self.name, self.num_workgroups,
                                self.wavefronts_per_wg, program)

    def input_bytes(self) -> int:
        return self.batch * self.image_bytes

    def output_bytes(self) -> int:
        return (self.batch * self.out_cols * self.kernel_size
                * self.kernel_size * self.channels * WORD)

    @classmethod
    def paper_case_study(cls) -> "Im2Col":
        """The exact problem of case study 1 (24×24, 6 channels,
        batch 640)."""
        return cls(image_width=24, image_height=24, channels=6, batch=640)

    @classmethod
    def scaled(cls, batch: int = 32) -> "Im2Col":
        """A smaller batch with identical per-image behaviour."""
        return cls(image_width=24, image_height=24, channels=6,
                   batch=batch)
