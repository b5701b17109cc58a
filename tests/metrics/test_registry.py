"""The metric registry: families, children, labels, rate, deltas."""

import threading

import pytest

from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Series,
    rate,
    snapshot_delta,
)


class TestRate:
    """Regression-pin the one throughput formula (satellite: every
    KIPS/events-per-second number funnels through metrics.rate)."""

    def test_formula_is_delta_over_seconds(self):
        assert rate(1000.0, 2.0) == 500.0
        assert rate(3.0, 0.5) == 6.0

    def test_zero_window_yields_zero_not_error(self):
        assert rate(100.0, 0.0) == 0.0
        assert rate(100.0, -1.0) == 0.0

    def test_zero_delta(self):
        assert rate(0.0, 10.0) == 0.0

    def test_negative_delta_passes_through(self):
        # Callers clamp when monotonicity matters; the formula itself
        # must not hide a counter reset.
        assert rate(-50.0, 2.0) == -25.0

    def test_shared_by_resource_monitor(self):
        """ResourceMonitor's events/s equals metrics.rate exactly."""
        from repro.core.resources import ResourceMonitor

        class FakeEngine:
            event_count = 0

        engine = FakeEngine()
        mon = ResourceMonitor(engine)
        mon._last_wall -= 2.0  # fake a 2-second window
        engine.event_count = 5000
        sample = mon.sample()
        assert sample.events_per_second == pytest.approx(
            rate(5000, 2.0), rel=0.05)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("x_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_set_overwrites_for_pull_collection(self):
        c = Counter("x_total")
        c.set(42.0)
        assert c.value == 42.0

    def test_labelled_children_are_independent(self):
        c = Counter("hits_total", labelnames=("component",))
        c.labels("L1").inc()
        c.labels("L1").inc()
        c.labels("L2").inc()
        assert c.labels("L1").value == 2.0
        assert c.labels("L2").value == 1.0

    def test_unlabelled_sugar_rejected_on_labelled_family(self):
        c = Counter("hits_total", labelnames=("component",))
        with pytest.raises(ValueError):
            c.inc()

    def test_wrong_label_arity_rejected(self):
        c = Counter("hits_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            c.labels("only-one")

    def test_children_have_slots(self):
        c = Counter("x_total")
        with pytest.raises(AttributeError):
            c._default.arbitrary = 1


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == 13.0

    def test_history_series(self):
        g = Gauge("temp", history=3)
        for i in range(5):
            g.set(float(i), t=float(i))
        child = g._default
        assert child.series.points() == [(2.0, 2.0), (3.0, 3.0),
                                         (4.0, 4.0)]

    def test_no_history_by_default(self):
        g = Gauge("temp")
        assert g._default.series is None


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("lat", buckets=(1.0, 5.0))
        for v in (0.5, 0.9, 3.0, 100.0):
            h.observe(v)
        child = h._default
        assert child.counts == [2, 1, 1]  # <=1, <=5, +Inf
        assert child.count == 4
        assert child.sum == pytest.approx(104.4)

    def test_boundary_lands_in_its_bucket(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(1.0)  # le=1.0 is inclusive, Prometheus-style
        assert h._default.counts == [1, 0]

    def test_buckets_sorted_automatically(self):
        h = Histogram("lat", buckets=(5.0, 1.0))
        assert h._default.bounds == (1.0, 5.0)

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())


class TestSeries:
    def test_bounded_ring(self):
        s = Series(2)
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        s.append(3.0, 30.0)
        assert s.points() == [(2.0, 20.0), (3.0, 30.0)]
        assert len(s) == 2


class TestRegistry:
    def test_get_or_create_idempotent(self):
        reg = MetricRegistry()
        a = reg.counter("x_total", "help")
        b = reg.counter("x_total")
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError):
            reg.gauge("x_total")

    def test_label_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("x_total", labelnames=("a",))
        with pytest.raises(ValueError):
            reg.counter("x_total", labelnames=("b",))

    def test_invalid_names_rejected(self):
        reg = MetricRegistry()
        for bad in ("", "1abc", "with space", "dash-ed"):
            with pytest.raises(ValueError):
                reg.counter(bad)

    def test_collector_runs_at_snapshot_time(self):
        reg = MetricRegistry()
        c = reg.counter("pulled_total")
        state = {"n": 0}
        reg.add_collector(lambda: c.set(float(state["n"])))
        state["n"] = 7
        snap = reg.snapshot()
        assert snap["pulled_total"]["samples"][0]["value"] == 7.0
        reg.remove_collector(reg._collectors[0])
        state["n"] = 99
        assert reg.snapshot()["pulled_total"]["samples"][0][
            "value"] == 7.0

    def test_snapshot_shape(self):
        reg = MetricRegistry()
        reg.counter("a_total", "A.").inc(3)
        reg.gauge("b", labelnames=("x",)).labels("1").set(2.0)
        reg.histogram("c", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["a_total"] == {
            "type": "counter", "help": "A.",
            "samples": [{"labels": {}, "value": 3.0}]}
        assert snap["b"]["samples"] == [
            {"labels": {"x": "1"}, "value": 2.0}]
        hist = snap["c"]["samples"][0]
        assert hist["buckets"] == {"1.0": 1, "+Inf": 0}
        assert hist["count"] == 1

    def test_snapshot_name_filter(self):
        reg = MetricRegistry()
        reg.counter("rtm_engine_events_total")
        reg.counter("rtm_cache_hits_total")
        snap = reg.snapshot(names="engine")
        assert list(snap) == ["rtm_engine_events_total"]

    def test_concurrent_writers_do_not_corrupt(self):
        reg = MetricRegistry()
        c = reg.counter("n_total")

        def work():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # GIL-atomic float adds can race in theory for +=; the registry
        # promises snapshot consistency, not perfect lock-free addition
        # across threads — but the sim writes from ONE thread, so what
        # matters is that nothing corrupts or raises.
        assert 0 < c.value <= 40_000


class TestSnapshotDelta:
    def test_counters_become_differences(self):
        reg = MetricRegistry()
        c = reg.counter("n_total")
        c.inc(10)
        first = reg.snapshot()
        c.inc(5)
        second = reg.snapshot()
        delta = snapshot_delta(first, second)
        assert delta["n_total"]["samples"][0]["value"] == 5.0

    def test_gauges_pass_through(self):
        reg = MetricRegistry()
        g = reg.gauge("depth")
        g.set(10.0)
        first = reg.snapshot()
        g.set(4.0)
        delta = snapshot_delta(first, reg.snapshot())
        assert delta["depth"]["samples"][0]["value"] == 4.0

    def test_new_family_passes_through(self):
        reg = MetricRegistry()
        first = reg.snapshot()
        reg.counter("late_total").inc(3)
        delta = snapshot_delta(first, reg.snapshot())
        assert delta["late_total"]["samples"][0]["value"] == 3.0

    def test_reset_clamps_at_zero(self):
        first = {"n_total": {"type": "counter", "help": "",
                             "samples": [{"labels": {}, "value": 10.0}]}}
        second = {"n_total": {"type": "counter", "help": "",
                              "samples": [{"labels": {}, "value": 2.0}]}}
        delta = snapshot_delta(first, second)
        assert delta["n_total"]["samples"][0]["value"] == 0.0

    def test_histogram_deltas(self):
        reg = MetricRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        first = reg.snapshot()
        h.observe(0.7)
        h.observe(2.0)
        delta = snapshot_delta(first, reg.snapshot())
        sample = delta["lat"]["samples"][0]
        assert sample["count"] == 2
        assert sample["buckets"] == {"1.0": 1, "+Inf": 1}
