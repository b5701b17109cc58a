"""Additional coverage of the watch / value-monitoring API surface."""

import pytest

from repro.akita import Buffer
from repro.core import Monitor, ValueMonitor, ValueWatch
from repro.core import timeseries
from repro.core.timeseries import MAX_WATCHES


class _Gauge:
    name = "Gauge"

    def __init__(self):
        self.reading = 0.0
        self.history = []
        self.buf = Buffer("Gauge.B", 4)


def test_watch_custom_label():
    w = ValueWatch(_Gauge(), "reading", label="pressure")
    assert w.label == "pressure"
    assert w.to_dict()["label"] == "pressure"


def test_monitor_get_by_id():
    vm = ValueMonitor()
    w = vm.watch(_Gauge(), "reading")
    assert vm.get(w.id) is w
    assert vm.get(99999) is None


def test_watch_ids_monotonic():
    vm = ValueMonitor()
    a = vm.watch(_Gauge(), "reading")
    b = vm.watch(_Gauge(), "reading")
    assert b.id > a.id


def test_each_monitor_numbers_its_own_watches():
    """Ids come from the collection, not the process: a second monitor
    in one process (a warm fleet worker's next job) starts at 1 too."""
    first = [Monitor().values.watch(_Gauge(), "reading").id
             for _ in range(2)]
    assert first == [1, 1]


def test_limit_is_configurable(monkeypatch):
    monkeypatch.setattr(timeseries, "MAX_WATCHES", 2)
    vm = ValueMonitor()
    w1 = vm.watch(_Gauge(), "reading")
    w2 = vm.watch(_Gauge(), "reading")
    w3 = vm.watch(_Gauge(), "reading")
    ids = {w.id for w in vm.watches}
    assert ids == {w2.id, w3.id}
    assert len(vm.watches) == 2


def test_default_limit_is_papers_five():
    assert MAX_WATCHES == 5
    vm = ValueMonitor()
    for _ in range(MAX_WATCHES + 1):
        vm.watch(_Gauge(), "reading")
    assert len(vm.watches) == 5


def test_sample_interleaves_multiple_sources():
    vm = ValueMonitor()
    g1, g2 = _Gauge(), _Gauge()
    w1 = vm.watch(g1, "reading")
    w2 = vm.watch(g2, "buf")
    g1.reading = 7
    g2.buf._items.append("x")
    vm.sample_all(1.0)
    assert list(w1.points) == [(1.0, 7.0)]
    assert list(w2.points) == [(1.0, 1.0)]


def test_watch_follows_live_mutation():
    vm = ValueMonitor()
    g = _Gauge()
    w = vm.watch(g, "history")
    for i in range(4):
        g.history.append(i)
        vm.sample_all(float(i))
    assert [v for _, v in w.points] == [1.0, 2.0, 3.0, 4.0]


def test_unwatch_during_sampling_is_safe():
    vm = ValueMonitor()
    watches = [vm.watch(_Gauge(), "reading") for _ in range(3)]
    vm.unwatch(watches[1].id)
    vm.sample_all(0.0)  # must not raise
    assert len(vm.watches) == 2
