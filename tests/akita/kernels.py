"""The small kernels the engine's host-independent gates run, in one
table: the golden event order (``test_event_order_golden.py``), the
calls and frames per event (``test_hot_path_budget.py``) and the counts
document (``tests/counts.py``) all build their runs from it.

Each runs on the small two-chiplet platform.  FIR is mostly CU → ROB →
L1 → L2 traffic on one chiplet; ``Im2Col.scaled(batch=1)`` is RDMA and
switch heavy; the small StoreStorm is the write path (write buffers,
DRAM).  Beside each kernel sit its budgets (see
``test_hot_path_budget.py`` for their history), about 10% above what
the code reaches: bare calls per event, bare Python frames per event,
and the calls recording (registry + ring tracer) adds per event —
``None`` where that count is not measured.
"""

from typing import Callable, NamedTuple, Optional

from repro.workloads import FIR, Im2Col, StoreStorm


class Kernel(NamedTuple):
    make: Callable
    calls: float
    frames: float
    recording: Optional[float]
    #: Whether ``data/event_order_golden.json`` pins its event order.
    golden: bool


KERNELS = {
    "fir256": Kernel(lambda: FIR(num_samples=256), 18.5, 8.1, 3.7, True),
    "fir4096": Kernel(lambda: FIR(num_samples=4096), 19.7, 8.8, 3.8,
                      False),
    "im2col_batch1": Kernel(lambda: Im2Col.scaled(batch=1), 19.2, 7.8,
                            None, True),
    "storestorm_small": Kernel(lambda: StoreStorm(
        num_workgroups=4, wavefronts_per_wg=2, stores_per_wavefront=24),
        16.9, 7.6, None, True),
}

GOLDEN_KERNELS = sorted(name for name, kernel in KERNELS.items()
                        if kernel.golden)
