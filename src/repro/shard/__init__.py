"""Sharded simulation: one platform, many processes.

Python's GIL caps a monolithic simulation at one core no matter how
many threads it spawns, so the only road to parallel speedup is
*processes* — and processes mean partitioning the platform and
synchronizing virtual time conservatively across the boundary.  This
package implements that execution mode:

* :mod:`.partition` — name-based ownership: chiplet blocks per shard
  (:func:`chiplet_owners`), host side (driver, switch) on the hub
  shard 0.
* :mod:`.boundary` — the wire codec (a message crosses as its class
  name and its slot fields) and the proxy :class:`ShardConnection`
  that exports remote sends and lands ferried arrivals.
* :mod:`.runtime` — the per-process shard: build the full platform,
  prune to the owned slice, replace every platform link that spans
  shards with a :class:`ShardConnection` (the shortest is the shard's
  sync window), schedule ferried arrivals in timestamp order, run in
  granted windows.
* :mod:`.worker` — the worker process (forked from the run's zygote),
  speaking the fleet control framing on its pipes.
* :mod:`.coordinator` — forks the workers, drives the conservative
  window barrier, routes boundary traffic, and federates the shards'
  AkitaRTM dashboards behind one gateway.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BoundaryCodec": ".boundary",
    "build_port_registry": ".boundary",
    "ShardConnection": ".boundary",
    "ShardCoordinator": ".coordinator",
    "ShardGateway": ".coordinator",
    "ShardResult": ".coordinator",
    "ShardWorkerError": ".coordinator",
    "chiplet_owners": ".partition",
    "owner_of_name": ".partition",
    "ShardRuntime": ".runtime",
})
