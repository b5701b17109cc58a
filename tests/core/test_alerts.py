"""Tests for alert rules — the 'fail early, fail fast' automation."""

import threading
import time

import pytest

from repro.akita import Buffer
from repro.core import AlertManager, AlertRule, Monitor, RTMClient
from repro.gpu import GPUPlatform
from repro.historian import MetricRule
from repro.metrics import MetricRegistry, expose
from repro.workloads import StoreStorm


class _Gauge:
    name = "Gauge"

    def __init__(self):
        self.level = 0.0
        self.buf = Buffer("Gauge.B", 4)


# -------------------------------------------------------------- rules
def test_rule_fires_when_condition_holds():
    g = _Gauge()
    rule = AlertRule(g, "level", ">=", 10.0)
    g.level = 12
    assert rule.evaluate(1.0, time.monotonic()) == "firing"
    assert rule.fired
    assert rule.fired_at_sim_time == 1.0


def test_rule_does_not_fire_below_threshold():
    g = _Gauge()
    rule = AlertRule(g, "level", ">=", 10.0)
    g.level = 9.9
    assert rule.evaluate(0.0, time.monotonic()) is None
    assert not rule.fired


def test_rule_requires_sustained_condition():
    g = _Gauge()
    g.level = 100
    rule = AlertRule(g, "level", ">=", 10.0, duration=0.1)
    t0 = time.monotonic()
    assert rule.evaluate(0.0, t0) is None             # starts the hold
    assert rule.evaluate(0.0, t0 + 0.05) is None      # not held long enough
    assert rule.evaluate(0.0, t0 + 0.11) == "firing"  # held: fires


def test_hold_window_resets_on_dip():
    g = _Gauge()
    rule = AlertRule(g, "level", ">=", 10.0, duration=0.1)
    t0 = time.monotonic()
    g.level = 50
    rule.evaluate(0.0, t0)
    g.level = 1
    rule.evaluate(0.0, t0 + 0.05)              # dip resets the window
    g.level = 50
    assert rule.evaluate(0.0, t0 + 0.12) is None   # window restarted
    assert rule.evaluate(0.0, t0 + 0.25) == "firing"


def test_rule_fires_once():
    g = _Gauge()
    g.level = 99
    rule = AlertRule(g, "level", ">", 1.0)
    now = time.monotonic()
    assert rule.evaluate(0.0, now) == "firing"
    assert rule.evaluate(0.0, now + 1) is None


def test_rule_on_buffer_size():
    g = _Gauge()
    rule = AlertRule(g, "buf", ">=", 4.0)
    for _ in range(4):
        g.buf._items.append("x")
    assert rule.evaluate(0.0, time.monotonic()) == "firing"


def test_rule_validation():
    g = _Gauge()
    with pytest.raises(ValueError):
        AlertRule(g, "level", "!=", 1.0)
    with pytest.raises(ValueError):
        AlertRule(g, "level", ">=", 1.0, action="explode")


def test_rule_label_and_dict():
    g = _Gauge()
    rule = AlertRule(g, "level", ">=", 8.0, duration=1.0)
    assert rule.label == "Gauge.level >= 8"
    d = rule.to_dict()
    assert d["fired"] is False
    assert d["action"] == "notify"


# -------------------------------------------------------------- manager
def test_manager_abort_action():
    aborted = []
    manager = AlertManager(abort=lambda: aborted.append(True))
    g = _Gauge()
    g.level = 11
    rule = manager.add(AlertRule(g, "level", ">=", 10.0, action="abort"))
    fired = manager.evaluate_all(2.0)
    assert [(t["rule_id"], t["state"]) for t in fired] == [
        (rule.id, "firing")]
    assert aborted == [True]
    assert manager.fired_log == [rule]


def test_manager_add_remove():
    manager = AlertManager()
    rule = manager.add(AlertRule(_Gauge(), "level", ">=", 1.0))
    assert manager.remove(rule.id)
    assert not manager.remove(rule.id)
    assert manager.rules == []


# -------------------------------------------------------------- monitor + HTTP
def test_abort_on_hang_terminates_hung_simulation():
    """Fully automated fail-fast: the hung platform is torn down by the
    monitor without any human action — through its one door, the
    watchdog with no *Tick* retries."""
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    watchdog = monitor.enable_watchdog(max_tick_retries=0,
                                       check_interval=0.05)
    StoreStorm().enqueue(platform.driver)
    # hang_wait large: only the monitor's abort can end this run.
    completed = platform.run(hang_wait=120.0)
    monitor.stop_server()
    assert completed is False
    assert platform.simulation.run_state == "aborted"
    assert watchdog.report["verdict"] == "aborted"
    assert watchdog.report["recovery_attempts"] == 0


def test_alert_api_over_http():
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.sample_interval = 0.05
    monitor.start_sampler()
    url = monitor.start_server()
    client = RTMClient(url)
    StoreStorm().enqueue(platform.driver)

    wb = platform.chiplets[0].write_buffers[0].name
    rule_id = client.add_alert(wb, "size", ">=", 2.0, duration=0.0,
                               action="abort")
    rules = client.alerts()
    assert rules[0]["id"] == rule_id
    assert rules[0]["action"] == "abort"

    completed = platform.run(hang_wait=120.0)
    assert completed is False
    assert platform.simulation.run_state == "aborted"
    fired = [r for r in client.alerts() if r["fired"]]
    assert fired and fired[0]["id"] == rule_id
    assert client.remove_alert(rule_id)
    monitor.stop_server()


# -------------------------------------------------------------- dedup
def test_still_breaching_rule_fires_once_then_resolves_once():
    manager = AlertManager()
    g = _Gauge()
    g.level = 50
    rule = manager.add(AlertRule(g, "level", ">=", 10.0))
    assert len(manager.evaluate_all(1.0)) == 1
    assert rule.state == "firing"
    # Still breaching: silent.
    for t in (2.0, 3.0, 4.0):
        assert manager.evaluate_all(t) == []
    assert manager.fired_log == [rule]
    # Condition clears: exactly one resolved edge.
    g.level = 0
    assert [t["state"] for t in manager.evaluate_all(5.0)] == ["resolved"]
    assert rule.state == "ok"
    assert rule.resolved_at_sim_time == 5.0
    manager.evaluate_all(6.0)
    assert [t["state"] for t in manager.transitions] == ["firing",
                                                         "resolved"]


def test_rule_refires_after_resolve():
    manager = AlertManager()
    g = _Gauge()
    rule = manager.add(AlertRule(g, "level", ">=", 10.0))
    g.level = 20
    manager.evaluate_all(1.0)
    g.level = 0
    manager.evaluate_all(2.0)
    g.level = 20
    assert [t["state"] for t in manager.evaluate_all(3.0)] == ["firing"]
    assert manager.fired_log == [rule, rule]
    assert rule.fired_at_sim_time == 3.0


def test_transitions_counter_counts_edges_not_ticks():
    registry = MetricRegistry()
    manager = AlertManager(registry=registry)
    g = _Gauge()
    manager.add(AlertRule(g, "level", ">=", 10.0))
    g.level = 99
    for t in range(5):
        manager.evaluate_all(float(t))
    g.level = 0
    for t in range(5, 10):
        manager.evaluate_all(float(t))
    text = expose(registry)
    assert 'rtm_alerts_transitions_total{state="firing"} 1' in text
    assert 'rtm_alerts_transitions_total{state="resolved"} 1' in text


# ----------------------------------------- one machine, two value sources
def _component_path_rule():
    """A live component path; a pass observes the simulation time."""
    gauge = _Gauge()
    rule = AlertRule(gauge, "level", ">=", 10.0, duration=1.0)

    def observe(value, now):
        gauge.level = value
        return now
    return rule, observe


def _metric_family_rule():
    """A parsed metric family; a pass observes the snapshot."""
    rule = MetricRule("level", op=">=", threshold=10.0, for_seconds=1.0)

    def observe(value, now):
        return {"level": {"type": "gauge",
                          "samples": [({}, float(value))]}}
    return rule, observe


#: (wall seconds, value) -> (state afterwards, transition emitted)
_BREACH_PATTERN = [
    ((0.0, 0), ("ok", None)),
    ((1.0, 50), ("pending", None)),        # hold starts
    ((1.5, 50), ("pending", None)),
    ((2.0, 50), ("firing", "firing")),     # held for 1 s
    ((3.0, 50), ("firing", None)),         # still breaching: silent
    ((4.0, 50), ("firing", None)),
    ((5.0, 0), ("ok", "resolved")),
    ((6.0, 0), ("ok", None)),
    ((7.0, 50), ("pending", None)),        # re-armed
    ((7.5, 0), ("ok", None)),              # a dip resets the hold
    ((8.0, 50), ("pending", None)),
    ((9.0, 50), ("firing", "firing")),
]


@pytest.mark.parametrize("make_rule",
                         [_component_path_rule, _metric_family_rule])
def test_both_value_sources_walk_the_same_transition_sequence(make_rule):
    registry = MetricRegistry()
    manager = AlertManager(registry=registry)
    rule, observe = make_rule()
    manager.add(rule)
    walked = []
    for (now, value), _ in _BREACH_PATTERN:
        new = manager.evaluate_all(observe(value, now), now)
        assert len(new) <= 1
        walked.append((rule.state, new[0]["state"] if new else None))
    assert walked == [expected for _, expected in _BREACH_PATTERN]
    # Exactly one counter increment and one log entry per edge.
    text = expose(registry)
    assert 'rtm_alerts_transitions_total{state="firing"} 2' in text
    assert 'rtm_alerts_transitions_total{state="resolved"} 1' in text
    assert [(t["seq"], t["state"]) for t in manager.transitions] == [
        (1, "firing"), (2, "resolved"), (3, "firing")]
    assert manager.transitions_since(1) == manager.transitions[1:]
    assert manager.fired_log == [rule, rule]
    assert rule.fired_count == 2


def test_monitor_exposes_transition_metric():
    platform = GPUPlatform(StoreStorm.trigger_config(buggy=True))
    monitor = Monitor(platform.simulation)
    assert ("rtm_alerts_transitions_total"
            in monitor.metrics._metrics), \
        "monitor registry missing the transitions family"
