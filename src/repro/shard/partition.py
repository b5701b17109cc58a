"""Partitioning the platform's component namespace across shards.

A sharded run splits one multi-chiplet :class:`~repro.gpu.platform.
GPUPlatform` into ``num_shards`` processes along the chiplet boundary:
contiguous chiplet blocks (sizes differing by at most one, computed by
:func:`chiplet_owners`), with shard 0 — the *hub* — additionally owning
the host side (``Driver``) and the shared ``InterChipletSwitch``.

Ownership is decidable from a component or port *name* alone, which is
what makes cross-process message routing a pure function: every port
name starts with its root component's segment (``GPU[2].RDMA.NetPort``,
``Driver.ToGPU``, ``InterChipletSwitch.Port1``), so the coordinator can
route a wire message to its destination shard without any knowledge of
the object graph.
"""

from __future__ import annotations

from typing import Dict

from ..akita.errors import ConfigurationError
from ..akita.naming import split_indexed

__all__ = ["chiplet_owners", "owner_of_name"]


def chiplet_owners(num_chiplets: int, num_shards: int) -> Dict[int, int]:
    """Chiplet → shard: contiguous blocks, sizes differing by at most
    one, every chiplet on exactly one shard.

    ``num_shards == 1`` is the degenerate case where shard 0 owns
    everything (the monolithic platform).
    """
    if not 1 <= num_shards <= num_chiplets:
        raise ConfigurationError(
            f"need 1..{num_chiplets} shards for {num_chiplets} chiplets, "
            f"got {num_shards}")
    base, extra = divmod(num_chiplets, num_shards)
    big = extra * (base + 1)  # the first *extra* shards hold base + 1
    return {c: c // (base + 1) if c < big else extra + (c - big) // base
            for c in range(num_chiplets)}


def owner_of_name(name: str, owners: Dict[int, int]) -> int:
    """Shard owning the component/port with hierarchical *name*.

    ``GPU[c].*`` belongs to chiplet *c*'s owner; everything else
    (``Driver``, ``InterChipletSwitch``) belongs to the hub shard 0.
    """
    root = name.split(".", 1)[0]
    base, indices = split_indexed(root)
    if base == "GPU" and indices:
        return owners[indices[0]]
    return 0
