"""Declarative alert rules over metric families.

:class:`repro.core.alerts.AlertRule` watches one live simulation's
component values.  :class:`MetricRule` is the *fleet* plane's value
source for the same state machine and engine (:mod:`repro.core.alerts`):
it evaluates against parsed metric snapshots (the gateway's federated
``/metrics``, or any registry exposition), so one rule can watch a
family aggregated across every worker and job.

Three rule kinds:

* ``threshold`` — the label-matched family total compared against a
  bound (``rtm_fleet_jobs{state="failed"} >= 1``);
* ``rate``      — the per-second increase of the total between
  consecutive snapshots compared against a bound (a counter going too
  fast, or — with ``<=`` — too slow);
* ``absence``   — fires when the family has no matching samples at all
  (a worker that stopped reporting).

A breach must hold for ``for_seconds`` before the rule fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.alerts import OPERATORS, Rule
from ..metrics.exposition import family_total

__all__ = ["MetricRule", "RULE_KINDS"]

RULE_KINDS = ("threshold", "rate", "absence")


@dataclass
class MetricRule(Rule):
    """One declarative rule over a metric family (see module doc)."""

    family: str
    op: str = ">="
    threshold: float = 0.0
    kind: str = "threshold"
    labels: Dict[str, str] = field(default_factory=dict)
    for_seconds: float = 0.0
    name: str = ""
    id: int = field(default=0, init=False)

    _prev: Optional[Tuple[float, float]] = None  # (wall, total) for rate

    @property
    def hold(self) -> float:
        return self.for_seconds

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}; "
                             f"use one of {RULE_KINDS}")
        if not self.name:
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(self.labels.items()))
            target = self.family + (f"{{{labels}}}" if labels else "")
            if self.kind == "absence":
                self.name = f"absent({target})"
            elif self.kind == "rate":
                self.name = (f"rate({target}) {self.op} "
                             f"{self.threshold:g}")
            else:
                self.name = f"{target} {self.op} {self.threshold:g}"

    # ------------------------------------------------------------------
    def breaching(self, families: Dict[str, Any],
                  now_wall: float) -> bool:
        total, matched = family_total(families, self.family, self.labels)
        if self.kind == "absence":
            self.last_value = float(matched)
            return matched == 0
        if self.kind == "rate":
            prev = self._prev
            self._prev = (now_wall, total)
            if prev is None:
                self.last_value = None
                return False  # need two snapshots for a rate
            elapsed = now_wall - prev[0]
            if elapsed <= 0:
                return False
            value = (total - prev[1]) / elapsed
        else:
            if matched == 0:
                self.last_value = None
                return False  # no data is not a threshold breach
            value = total
        self.last_value = value
        return OPERATORS[self.op](value, self.threshold)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "family": self.family,
            "labels": dict(self.labels),
            "kind": self.kind,
            "op": self.op,
            "threshold": self.threshold,
            "for_seconds": self.for_seconds,
            "state": self.state,
            "last_value": self.last_value,
            "fired_count": self.fired_count,
        }

