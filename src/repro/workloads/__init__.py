"""``repro.workloads`` — the six MGPUSim benchmarks of the paper's
evaluation (Figure 7), plus diagnostic workloads.

Each workload is a trace generator: it produces the per-wavefront
timing-op streams (loads/stores/compute) whose address patterns match
the real OpenCL kernels' locality and striding.  See DESIGN.md for why
this substitution preserves everything AkitaRTM observes.
"""

import dataclasses
from functools import partial
from typing import Any, Callable, Dict

from .aes import AES
from .base import WORD, Workload, WorkloadRun, mix
from .bfs import BFS
from .fir import FIR
from .im2col import Im2Col
from .kmeans import KMeans
from .matmul import MatMul
from .storestorm import StoreStorm

#: The paper's benchmark suite (Figure 7 x-axis), default problem sizes.
SUITE: Dict[str, Callable[[], Workload]] = {
    "aes": AES,
    "bfs": BFS,
    "fir": FIR,
    "im2col": Im2Col,
    "kmeans": KMeans,
    "matmul": MatMul,
}


#: Every runnable workload as a zero-argument factory, at problem sizes
#: that engage all CUs of a scaled platform while keeping pure-Python
#: event counts tractable: the suite plus the StoreStorm diagnostic.
#: Whoever needs one workload builds one, not all seven.
SMALL: Dict[str, Callable[[], Workload]] = {
    "aes": partial(AES, num_blocks=2048),
    "bfs": partial(BFS, num_vertices=2048),
    "fir": partial(FIR, num_samples=8192),
    "im2col": partial(Im2Col.scaled, batch=16),
    "kmeans": partial(KMeans, num_points=2048),
    "matmul": partial(MatMul, n=64, tile=16),
    "storestorm": StoreStorm,
}


def suite_small() -> Dict[str, Workload]:
    """The paper's suite at the :data:`SMALL` problem sizes."""
    return {name: SMALL[name]() for name in SUITE}


#: Name → class of every runnable workload: where a new workload is
#: registered, and the name it crosses a process boundary under.
CLASSES: Dict[str, type] = {**SUITE, "storestorm": StoreStorm}


def workload_spec(workload: Workload) -> Dict[str, Any]:
    """Serialize *workload* (a shard worker's ``init`` rebuilds it)."""
    for name, cls in CLASSES.items():
        if type(workload) is cls:
            return {"name": name,
                    "params": dataclasses.asdict(workload)}
    raise ValueError(
        f"{type(workload).__name__} is not a registered workload")


def resolve_workload(spec: Dict[str, Any]) -> Workload:
    """Reconstruct the workload a :func:`workload_spec` describes."""
    name = spec["name"]
    try:
        cls = CLASSES[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None
    return cls(**(spec.get("params") or {}))


__all__ = [
    "AES",
    "BFS",
    "CLASSES",
    "FIR",
    "Im2Col",
    "KMeans",
    "MatMul",
    "SMALL",
    "StoreStorm",
    "SUITE",
    "WORD",
    "Workload",
    "WorkloadRun",
    "mix",
    "resolve_workload",
    "suite_small",
    "workload_spec",
]
