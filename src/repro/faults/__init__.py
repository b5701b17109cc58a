"""``repro.faults`` — deterministic fault injection and campaigns.

The diagnostics layer (``repro.core``) can only be trusted if it is
exercised against the failures it claims to catch.  This package
induces those failures on demand, entirely through framework hooks:

* :class:`FaultInjector` / :class:`FaultSpec` — drop, delay, stall,
  pin and kill primitives with seeded determinism, component-name
  patterns and virtual-time windows.
* :class:`FaultScenario` / :class:`Expectation` — declarative
  (fault, expected-verdict) bundles, with a prebuilt :data:`LIBRARY`
  that reproduces the paper's case-study failure classes.
* :class:`CampaignRunner` / :class:`CampaignResult` — executes
  scenarios against workloads and asserts the monitor's verdict, under
  :class:`~repro.core.watchdog.Watchdog` supervision so nothing ever
  wedges CI.

Typical usage::

    from repro.faults import CampaignRunner, write_buffer_stall
    from repro.gpu import GPUPlatform
    from repro.workloads import FIR

    runner = CampaignRunner(GPUPlatform, FIR)
    result = runner.run(write_buffer_stall())
    print(result.summary())
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CampaignResult": ".campaign",
    "CampaignRunner": ".campaign",
    "FaultInjector": ".injector",
    "FaultKind": ".injector",
    "FaultSpec": ".injector",
    "cycles": ".scenarios",
    "Expectation": ".scenarios",
    "FaultScenario": ".scenarios",
    "l2_intake_pinned": ".scenarios",
    "LIBRARY": ".scenarios",
    "rdma_message_loss": ".scenarios",
    "slow_network": ".scenarios",
    "write_buffer_stall": ".scenarios",
})
