"""``repro.workloads`` — the six MGPUSim benchmarks of the paper's
evaluation (Figure 7), plus diagnostic workloads.

Each workload is a trace generator: it produces the per-wavefront
timing-op streams (loads/stores/compute) whose address patterns match
the real OpenCL kernels' locality and striding.  See DESIGN.md for why
this substitution preserves everything AkitaRTM observes.

:data:`WORKLOADS` is the one place a name becomes a workload.  Nothing
behind it is imported until a name is used, so a process that runs
``fir`` loads :mod:`.fir` and :mod:`.base` and no other workload.
"""

import dataclasses
import sys
from typing import Any, Dict, Mapping, Optional, Tuple

from .._lazy import lazy_exports

#: Name → (``"module:Class"`` entry point, the problem size a scaled run
#: uses, as overrides of the class defaults) of every runnable workload:
#: the paper's suite plus the StoreStorm diagnostic, the shard layer's
#: reference workload.  The scaled sizes engage all CUs of the scaled
#: platform while keeping pure-Python event counts tractable; a
#: ``full_scale`` run takes the class defaults.  A new workload is one
#: row here.
WORKLOADS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "aes": ("repro.workloads.aes:AES", {"num_blocks": 2048}),
    "bfs": ("repro.workloads.bfs:BFS", {"num_vertices": 2048}),
    "fir": ("repro.workloads.fir:FIR", {"num_samples": 8192}),
    "im2col": ("repro.workloads.im2col:Im2Col",
               {"image_width": 24, "image_height": 24, "channels": 6,
                "batch": 16}),
    "kmeans": ("repro.workloads.kmeans:KMeans", {"num_points": 2048}),
    "matmul": ("repro.workloads.matmul:MatMul", {"n": 64, "tile": 16}),
    "storestorm": ("repro.workloads.storestorm:StoreStorm", {}),
}

#: The paper's benchmark suite (Figure 7 x-axis).
SUITE = ("aes", "bfs", "fir", "im2col", "kmeans", "matmul")

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    **{cls: module for module, sep, cls in
       (entry.partition(":") for entry, _ in WORKLOADS.values())},
    "WORD": ".base",
    "Workload": ".base",
    "WorkloadRun": ".base",
    "mix": ".base",
})
__all__ += ["SUITE", "WORKLOADS", "build_platform", "make_workload",
            "platform_config", "resolve_workload", "workload_class",
            "workload_spec"]


def workload_class(name: str, params: Mapping[str, Any] = ()) -> type:
    """The class *name* registers, once *params* are checked against its
    fields — no instance is built.  Raises ``ValueError`` for an unknown
    name or parameter."""
    try:
        entry, _ = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{sorted(WORKLOADS)}") from None
    # Through the lazy export: imported at first use, then a lookup.
    cls = getattr(sys.modules[__name__], entry.partition(":")[2])
    unknown = set(params).difference(cls.__dataclass_fields__)
    if unknown:
        known = sorted(f.name for f in dataclasses.fields(cls))
        raise ValueError(f"unknown {name} parameter(s) {sorted(unknown)}; "
                         f"expected a subset of {known}")
    return cls


def make_workload(name: str, params: Optional[Mapping[str, Any]] = None,
                  *, full_scale: bool = False):
    """A fresh workload *name* at the scaled size (the class defaults
    when *full_scale*), *params* applied over it."""
    params = params or {}
    cls = workload_class(name, params)
    sizes = {} if full_scale else WORKLOADS[name][1]
    return cls(**{**sizes, **params})


def platform_config(chiplets: int = 1, *, buggy_l2: bool = False,
                    full_scale: bool = False):
    """The platform a run uses: *chiplets* of the paper's R9 Nano when
    *full_scale*, else of the scaled ones."""
    from ..gpu.platform import GPUPlatformConfig
    preset = (GPUPlatformConfig.r9_nano_mcm if full_scale
              else GPUPlatformConfig.small)
    return preset(num_chiplets=chiplets, l2_write_buffer_bug=buggy_l2)


def build_platform(name: str, chiplets: int = 1, *,
                   params: Optional[Mapping[str, Any]] = None,
                   buggy_l2: bool = False, full_scale: bool = False):
    """``(platform, run)``: a fresh :func:`platform_config` platform
    with the workload *name* enqueued on it."""
    from ..gpu.platform import GPUPlatform
    platform = GPUPlatform(platform_config(
        chiplets, buggy_l2=buggy_l2, full_scale=full_scale))
    workload = make_workload(name, params, full_scale=full_scale)
    return platform, workload.enqueue(platform.driver)


def workload_spec(workload) -> Dict[str, Any]:
    """Serialize *workload* by its name here (a shard worker's ``init``
    rebuilds it with :func:`resolve_workload`)."""
    cls = type(workload)
    entry = f"{cls.__module__}:{cls.__qualname__}"
    for name, (registered, _) in WORKLOADS.items():
        if registered == entry:
            return {"name": name, "params": dataclasses.asdict(workload)}
    raise ValueError(f"{cls.__name__} is not a registered workload")


def resolve_workload(spec: Dict[str, Any]):
    """Reconstruct the workload a :func:`workload_spec` describes."""
    return make_workload(spec["name"], spec.get("params"))
