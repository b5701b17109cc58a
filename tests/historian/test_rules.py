"""Tests for the metric alert-rule engine (dedup state machine)."""

import pytest

from repro.core import AlertManager
from repro.historian import MetricRule
from repro.metrics import MetricRegistry, expose, parse_exposition


def _families(**values):
    return {name: {"type": "gauge", "samples": [({}, float(v))]}
            for name, v in values.items()}


def _labelled(name, samples):
    return {name: {"type": "gauge",
                   "samples": [(labels, float(v))
                               for labels, v in samples]}}


# ------------------------------------------------------------- rules
def test_threshold_fires_and_resolves_once_each():
    rule = MetricRule("jobs", op=">=", threshold=5)
    assert rule.evaluate(_families(jobs=7), 0.0) == "firing"
    assert rule.evaluate(_families(jobs=8), 1.0) is None  # still breaching
    assert rule.evaluate(_families(jobs=9), 2.0) is None
    assert rule.evaluate(_families(jobs=1), 3.0) == "resolved"
    assert rule.evaluate(_families(jobs=1), 4.0) is None
    # Re-arms: a later breach fires again.
    assert rule.evaluate(_families(jobs=7), 5.0) == "firing"
    assert rule.fired_count == 2


def test_threshold_label_subset_matching():
    rule = MetricRule("jobs", labels={"state": "failed"},
                      op=">=", threshold=1)
    families = _labelled("jobs", [({"state": "completed"}, 10),
                                  ({"state": "failed"}, 0)])
    assert rule.evaluate(families, 0.0) is None
    families = _labelled("jobs", [({"state": "completed"}, 10),
                                  ({"state": "failed"}, 2)])
    assert rule.evaluate(families, 1.0) == "firing"
    assert rule.last_value == 2.0


def test_threshold_no_data_is_not_a_breach():
    rule = MetricRule("missing", op=">=", threshold=0)
    assert rule.evaluate(_families(other=1), 0.0) is None
    assert rule.state == "ok"


def test_hold_window():
    rule = MetricRule("x", op=">=", threshold=1, for_seconds=1.0)
    assert rule.evaluate(_families(x=5), 0.0) is None
    assert rule.state == "pending"
    assert rule.evaluate(_families(x=5), 0.5) is None
    assert rule.evaluate(_families(x=0), 0.7) is None  # dip resets
    assert rule.evaluate(_families(x=5), 1.0) is None
    assert rule.evaluate(_families(x=5), 2.1) == "firing"


def test_rate_rule():
    rule = MetricRule("events_total", kind="rate", op=">=",
                      threshold=100.0)
    assert rule.evaluate(_families(events_total=0), 0.0) is None
    # +50 in 1s: below the 100/s bound.
    assert rule.evaluate(_families(events_total=50), 1.0) is None
    # +500 in 1s: breach.
    assert rule.evaluate(_families(events_total=550), 2.0) == "firing"
    assert rule.last_value == pytest.approx(500.0)
    # Counter stalls: rate 0, resolved.
    assert rule.evaluate(_families(events_total=550), 3.0) == "resolved"


def test_absence_rule():
    rule = MetricRule("heartbeat", kind="absence")
    assert rule.evaluate(_families(heartbeat=1), 0.0) is None
    assert rule.evaluate(_families(other=1), 1.0) == "firing"
    assert rule.evaluate(_families(other=1), 2.0) is None
    assert rule.evaluate(_families(heartbeat=1), 3.0) == "resolved"


def test_rule_validation_and_names():
    with pytest.raises(ValueError):
        MetricRule("x", kind="banana")
    with pytest.raises(ValueError):
        MetricRule("x", op="!=")
    assert MetricRule("x", op=">", threshold=2).name == "x > 2"
    assert MetricRule("x", kind="absence").name == "absent(x)"
    labelled = MetricRule("x", labels={"a": "b"}, op=">=", threshold=1)
    assert labelled.name == "x{a=b} >= 1"


def test_rule_works_on_parsed_exposition():
    registry = MetricRegistry()
    registry.gauge("rtm_fleet_jobs", "jobs", ("state",)) \
        .labels("running").set(3)
    rule = MetricRule("rtm_fleet_jobs", labels={"state": "running"},
                      op=">=", threshold=1)
    families = parse_exposition(expose(registry))
    assert rule.evaluate(families, 0.0) == "firing"


# ------------------------------------------------------------- engine
def test_engine_transitions_are_deduplicated_and_sequenced():
    registry = MetricRegistry()
    engine = AlertManager(registry=registry)
    engine.add(MetricRule("x", op=">=", threshold=5))
    engine.add(MetricRule("y", kind="absence"))

    first = engine.evaluate_all(_families(x=9), 0.0)
    assert [(t["name"], t["state"]) for t in first] == [
        ("x >= 5", "firing"), ("absent(y)", "firing")]
    assert engine.evaluate_all(_families(x=9), 1.0) == []  # dedup
    second = engine.evaluate_all(_families(x=0, y=1), 2.0)
    assert [(t["name"], t["state"]) for t in second] == [
        ("x >= 5", "resolved"), ("absent(y)", "resolved")]

    seqs = [t["seq"] for t in engine.transitions]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert engine.transitions_since(seqs[1]) == engine.transitions[2:]

    text = expose(registry)
    assert 'rtm_alerts_transitions_total{state="firing"} 2' in text
    assert 'rtm_alerts_transitions_total{state="resolved"} 2' in text


def test_engine_add_remove():
    engine = AlertManager()
    rule = engine.add(MetricRule("x", op=">=", threshold=1))
    assert engine.remove(rule.id)
    assert not engine.remove(rule.id)
    assert engine.rules == []
    assert engine.evaluate_all(_families(x=9)) == []
