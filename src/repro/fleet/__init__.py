"""``repro.fleet`` — multi-simulation orchestration.

AkitaRTM (``repro.core``) monitors *one* simulation; real campaigns —
design sweeps, fault campaigns, the paper's Figure 7 grid — run dozens.
This package runs them behind a single pane of glass:

* :class:`JobQueue` / :class:`JobSpec` — the parameter grid and its
  restart policy (:mod:`repro.fleet.queue`);
* :class:`FleetManager` — an async dispatcher over a pool of warm
  persistent workers (each boots once, then runs a stream of jobs over
  the control channel), with worker-death detection, post-mortems and
  a crashed-worker recycle budget (:mod:`repro.fleet.manager`);
* :class:`~repro.fleet.channel.WorkerChannel` — one supervised worker,
  forked from its pool's one zygote (:mod:`repro.fleet.zygote`), and
  its pipes speaking :mod:`repro.fleet.protocol`: the only
  worker-process mechanism here and in :mod:`repro.shard`;
* the worker itself (:mod:`repro.fleet.worker`);
* :class:`FleetGateway` — the aggregating front server: ``/api/fleet``,
  a reverse proxy to every worker's own API, per-job final expositions
  at ``/api/fleet/jobs/<job>/metrics``, and a federated ``/metrics``
  with ``(worker, job)`` labels (:mod:`repro.fleet.gateway`).

Typical campaign::

    from repro.fleet import FleetGateway, FleetManager, JobQueue, JobSpec

    queue = JobQueue()
    for workload in ("fir", "kmeans"):
        for chiplets in (1, 2):
            queue.submit(JobSpec(f"{workload}-c{chiplets}", workload,
                                 chiplets=chiplets))
    manager = FleetManager(queue, num_workers=4)
    gateway = FleetGateway(manager)
    gateway.start(); manager.start()
    manager.wait(timeout=600)        # drain the sweep
    print(gateway.url + "/metrics")  # one federated scrape
    manager.stop(); gateway.stop()
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "FleetGateway": ".gateway",
    "CampaignJournal": ".journal",
    "JournalReplay": ".journal",
    "replay_journal": ".journal",
    "FleetManager": ".manager",
    "WorkerHandle": ".manager",
    "CONTROL_PREFIX": ".protocol",
    "FrameDecoder": ".protocol",
    "Job": ".queue",
    "JobQueue": ".queue",
    "JobSpec": ".queue",
})
