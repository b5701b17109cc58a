"""Alert rules: the "fail early, fail fast" automation.

The paper's motivation is terminating problematic simulations early;
its tool keeps the human in the loop.  Alert rules are the natural
automation step the discussion points toward: the user encodes the
condition they would have watched for ("this buffer pinned at capacity
for a second", "simulation hung") and the monitor watches it for them —
raising a flag on the dashboard, or aborting the run outright to free
the machine.

A rule fires when its *condition* holds continuously for a number of
wall seconds.  Rules are state machines with **deduplicated
transitions**: a held breach emits one ``firing``; the rule then stays
silently firing until the condition clears, which emits one
``resolved`` and re-arms it.  There is one such machine (:class:`Rule`)
and one engine (:class:`AlertManager`) for both planes; a rule kind is
a *value source* that says whether it is breaching given what one
evaluation pass observed:

* :class:`AlertRule` reads a **live component path** — the same
  resolved values the time charts plot — at the pass's simulation time
  (the monitor's sampler thread drives it), and may ``abort`` the run;
* :class:`repro.historian.rules.MetricRule` reads a **parsed metric
  family** out of a ``/metrics`` snapshot (the fleet plane).
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .inspector import numeric_value, resolve_path

#: Comparison operators accepted over the HTTP API.
OPERATORS: Dict[str, Callable[[float, float], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    ">": operator.gt,
    "<": operator.lt,
    "==": operator.eq,
}

#: What a fired rule does.
ACTIONS = ("notify", "abort")


class Rule:
    """The ``ok → pending → firing → resolved`` machine.

    A subclass is a dataclass naming its configuration; it supplies
    :meth:`breaching` (which also records :attr:`last_value`), the
    seconds a breach must :attr:`hold` before it fires, and the
    :attr:`name` its transitions are announced under.  Its :attr:`id`
    is handed out by the :class:`AlertManager` it is added to."""

    op: str
    action = "notify"
    state = "ok"  # ok | pending | firing
    last_value: Optional[float] = None
    fired_count = 0
    _holding_since: Optional[float] = None

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValueError(f"unknown operator {self.op!r}; "
                             f"use one of {sorted(OPERATORS)}")

    def breaching(self, observed: Any, now_wall: float) -> bool:
        raise NotImplementedError

    def evaluate(self, observed: Any,
                 now_wall: Optional[float] = None) -> Optional[str]:
        """Advance the machine against what one pass *observed*.

        Returns ``"firing"`` or ``"resolved"`` on a transition, else
        ``None`` — by construction at most one transition per call, and
        a still-breaching rule emits nothing.  When the condition
        clears the rule re-arms: a later breach fires again.
        """
        now_wall = time.monotonic() if now_wall is None else now_wall
        if not self.breaching(observed, now_wall):
            self._holding_since = None
            was_firing = self.state == "firing"
            self.state = "ok"
            return "resolved" if was_firing else None
        if self.state == "firing":
            return None  # still breaching: already announced
        if self._holding_since is None:
            self._holding_since = now_wall
        if now_wall - self._holding_since >= self.hold:
            self.state = "firing"
            self.fired_count += 1
            return "firing"
        self.state = "pending"
        return None


@dataclass
class AlertRule(Rule):
    """One watched condition on a live component; a pass observes the
    simulation time the component is read at."""

    component: Any
    path: str
    op: str
    threshold: float
    duration: float = 0.0
    action: str = "notify"
    label: str = ""
    id: int = field(default=0, init=False)

    fired_at_sim_time: Optional[float] = field(default=None, init=False)
    resolved_at_sim_time: Optional[float] = field(default=None,
                                                  init=False)

    @property
    def hold(self) -> float:
        return self.duration

    @property
    def name(self) -> str:
        return self.label

    @property
    def fired(self) -> bool:
        """The "ever fired" latch the dashboard and HTTP API show."""
        return self.fired_count > 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}")
        if not self.label:
            name = getattr(self.component, "name",
                           type(self.component).__name__)
            self.label = (f"{name}.{self.path} {self.op} "
                          f"{self.threshold:g}")

    def breaching(self, now_sim: float, now_wall: float) -> bool:
        try:
            raw = resolve_path(self.component, self.path)
        except (AttributeError, KeyError, IndexError, TypeError):
            raw = None
        value = numeric_value(raw) if raw is not None else None
        self.last_value = value
        return (value is not None
                and OPERATORS[self.op](value, self.threshold))

    def evaluate(self, now_sim: float,
                 now_wall: Optional[float] = None) -> Optional[str]:
        edge = super().evaluate(now_sim, now_wall)
        if edge == "firing":
            self.fired_at_sim_time = now_sim
        elif edge == "resolved":
            self.resolved_at_sim_time = now_sim
        return edge

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "label": self.label,
            "path": self.path,
            "op": self.op,
            "threshold": self.threshold,
            "duration": self.duration,
            "action": self.action,
            "state": self.state,
            "fired": self.fired,
            "fired_at_sim_time": self.fired_at_sim_time,
            "resolved_at_sim_time": self.resolved_at_sim_time,
            "last_value": self.last_value,
        }


class AlertManager:
    """Evaluates a rule set and performs the rules' actions.

    Transitions accumulate in one sequence-numbered log that
    :attr:`fired_log`, the historian's SSE stream and its ``alert``
    records all read — the sequence number is what makes "exactly once
    into the stream" checkable.
    """

    def __init__(self, abort: Optional[Callable[[], None]] = None,
                 registry=None):
        """
        Parameters
        ----------
        abort:
            Callback that terminates the simulation (wired to
            ``Simulation.abort`` by the monitor).  Rules with
            ``action="abort"`` invoke it when they fire.
        registry:
            Optional :class:`~repro.metrics.MetricRegistry`; when
            given, deduplicated transitions are counted as
            ``rtm_alerts_transitions_total{state="firing"|"resolved"}``.
        """
        self._rules: Dict[int, Rule] = {}
        self._ids = itertools.count(1)
        self._abort = abort
        self._log: List[Tuple[Rule, Dict[str, Any]]] = []
        self._seq = itertools.count(1)
        self._counter = None
        if registry is not None:
            self.attach_registry(registry)

    def attach_registry(self, registry) -> None:
        """(Re)bind the transitions counter — the fleet gateway attaches
        its own registry when the historian service binds to it."""
        self._counter = registry.counter(
            "rtm_alerts_transitions_total",
            "Deduplicated alert rule transitions.", ("state",))

    def add(self, rule):
        """Take *rule* in, numbered; returns it."""
        rule.id = next(self._ids)
        self._rules[rule.id] = rule
        return rule

    def remove(self, rule_id: int) -> bool:
        return self._rules.pop(rule_id, None) is not None

    @property
    def rules(self) -> List[Rule]:
        return list(self._rules.values())

    def evaluate_all(self, observed: Any,
                     now_wall: Optional[float] = None
                     ) -> List[Dict[str, Any]]:
        """One pass over every rule; returns the new transitions.

        A rule breaching across many passes lands in the log once per
        firing/resolved cycle, and each edge bumps
        ``rtm_alerts_transitions_total`` exactly once."""
        now_wall = time.monotonic() if now_wall is None else now_wall
        new: List[Dict[str, Any]] = []
        for rule in list(self._rules.values()):
            edge = rule.evaluate(observed, now_wall)
            if edge is None:
                continue
            event = {
                "seq": next(self._seq),
                "rule_id": rule.id,
                "name": rule.name,
                "state": edge,
                "value": rule.last_value,
                "wall": time.time(),
            }
            new.append(event)
            self._log.append((rule, event))
            if self._counter is not None:
                self._counter.labels(edge).inc()
            if edge == "firing" and rule.action == "abort" \
                    and self._abort is not None:
                self._abort()
        return new

    @property
    def transitions(self) -> List[Dict[str, Any]]:
        return [event for _, event in self._log]

    def transitions_since(self, seq: int) -> List[Dict[str, Any]]:
        """Transitions with a sequence number greater than *seq* —
        the SSE resume cursor."""
        return [event for _, event in self._log if event["seq"] > seq]

    @property
    def fired_log(self) -> List[Rule]:
        """The rule of each ``firing`` transition, in order."""
        return [rule for rule, event in self._log
                if event["state"] == "firing"]

    def to_dict(self) -> List[Dict[str, Any]]:
        return [rule.to_dict() for rule in self.rules]
