"""Declarative fault scenarios and the prebuilt scenario library.

A :class:`FaultScenario` bundles *what to break* (a list of
:class:`~repro.faults.injector.FaultSpec`) with *what the monitor must
conclude* (an :class:`Expectation`).  The campaign runner arms the
faults, runs a workload, and checks the expectation — turning the
paper's case studies into deterministic regression tests.

The library functions at the bottom reproduce the failure classes the
paper diagnoses:

* :func:`write_buffer_stall` — case study 2's hang class on demand: the
  L2 write buffer freezes, the memory hierarchy backs up, the event
  queue runs dry with work outstanding.
* :func:`rdma_message_loss` — lossy inter-chiplet traffic; dropped
  replies strand their requesters and the run wedges.
* :func:`l2_intake_pinned` — an L2 input buffer held at capacity, the
  bottleneck analyzer's smoking gun.
* :func:`slow_network` — a benign fault: extra link latency slows the
  run but it must still complete (the degrade-gracefully case).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..akita.ticker import GHZ
from .injector import FaultInjector, FaultKind, FaultSpec


def cycles(n: float, freq: float = GHZ) -> float:
    """Convert *n* cycles at *freq* to virtual seconds."""
    return n / freq


@dataclass
class Expectation:
    """What the monitor must conclude about a faulted run.

    ``None`` fields are not checked.
    """

    #: Hang verdict must arrive within this many wall seconds.
    hang_within: Optional[float] = None
    #: The workload must (not) run to completion.
    completes: Optional[bool] = None
    #: Some stuck/bottleneck buffer must match this fnmatch pattern.
    buffer_pattern: Optional[str] = None


@dataclass
class FaultScenario:
    """A named, reusable (faults, expectation) bundle."""

    name: str
    faults: List[FaultSpec] = field(default_factory=list)
    expect: Expectation = field(default_factory=Expectation)
    description: str = ""
    seed: int = 0

    def arm(self, injector: FaultInjector) -> List[FaultSpec]:
        """Inject fresh copies of this scenario's faults.

        Copies keep the scenario reusable: runtime counters and ids stay
        with the armed instance, not the template.
        """
        return [injector.inject(replace(spec, applied_count=0))
                for spec in self.faults]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.faults],
        }


# ----------------------------------------------------------------------
# Prebuilt library
# ----------------------------------------------------------------------
def write_buffer_stall(start: float = 5e-7,
                       end: Optional[float] = None,
                       hang_within: float = 60.0) -> FaultScenario:
    """Case study 2, deterministically: stall every write buffer's tick
    handler from *start* on (forever by default)."""
    return FaultScenario(
        name="write-buffer-stall",
        description=("The L2 write buffer stops draining: stores back "
                     "up through L2 and L1 until every component "
                     "sleeps — the paper's case-study-2 hang class."),
        faults=[FaultSpec(FaultKind.STALL, "*WriteBuffer*",
                          start=start, end=end)],
        expect=Expectation(hang_within=hang_within, completes=False,
                           buffer_pattern="*WriteBuffer*"))


def rdma_message_loss(probability: float = 0.01,
                      start: float = 1e-6,
                      hang_within: float = 60.0,
                      seed: int = 7) -> FaultScenario:
    """Drop a fraction of inter-chiplet RDMA traffic after *start*."""
    return FaultScenario(
        name="rdma-message-loss",
        description=(f"Drop {probability:.0%} of RDMA messages after "
                     f"t={start:g}s; stranded requesters wedge the "
                     "run."),
        seed=seed,
        faults=[FaultSpec(FaultKind.DROP, "*RDMA*", start=start,
                          probability=probability)],
        expect=Expectation(hang_within=hang_within, completes=False))


def l2_intake_pinned(start: float = 5e-7,
                     hang_within: float = 60.0) -> FaultScenario:
    """Hold every L2 top-port buffer at capacity from *start* on."""
    return FaultScenario(
        name="l2-intake-pinned",
        description=("L2 input buffers report full forever; upstream "
                     "senders see permanent backpressure and the "
                     "bottleneck table fingers the pinned buffers."),
        faults=[FaultSpec(FaultKind.PIN_BUFFER, "*L2*TopPort.Buf",
                          start=start)],
        expect=Expectation(hang_within=hang_within, completes=False,
                           buffer_pattern="*L2*"))


def slow_network(delay_cycles: float = 50.0,
                 start: float = 0.0,
                 end: Optional[float] = None) -> FaultScenario:
    """Benign fault: add latency to every chiplet link; the run must
    still complete (graceful degradation, not a hang)."""
    return FaultScenario(
        name="slow-network",
        description=(f"+{delay_cycles:g} cycles on inter-chiplet "
                     "traffic; slower, but correct."),
        faults=[FaultSpec(FaultKind.DELAY, "*Switch*", start=start,
                          end=end, delay=cycles(delay_cycles))],
        expect=Expectation(completes=True))


#: The default campaign, in the order the docs discuss them.
LIBRARY = {
    "write-buffer-stall": write_buffer_stall,
    "rdma-message-loss": rdma_message_loss,
    "l2-intake-pinned": l2_intake_pinned,
    "slow-network": slow_network,
}
