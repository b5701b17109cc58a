"""Prometheus text exposition format conformance."""

import re

from repro.metrics import (CONTENT_TYPE, MetricRegistry, expose,
                           parse_exposition)


def test_content_type_is_prometheus_0_0_4():
    assert CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"


def test_counter_help_type_and_sample():
    reg = MetricRegistry()
    reg.counter("x_total", "Things counted.").inc(3)
    text = expose(reg)
    assert "# HELP x_total Things counted.\n" in text
    assert "# TYPE x_total counter\n" in text
    assert "\nx_total 3\n" in text or text.startswith("x_total 3")


def test_gauge_sample():
    reg = MetricRegistry()
    reg.gauge("depth").set(7.5)
    assert "depth 7.5" in expose(reg)


def test_labels_rendered_and_escaped():
    reg = MetricRegistry()
    reg.counter("hits_total", labelnames=("component",)) \
        .labels('GPU1.L1"odd"\\x').inc()
    text = expose(reg)
    assert 'hits_total{component="GPU1.L1\\"odd\\"\\\\x"} 1' in text


def test_help_newlines_escaped():
    reg = MetricRegistry()
    reg.counter("x_total", "line one\nline two").inc()
    assert "# HELP x_total line one\\nline two" in expose(reg)


def test_histogram_cumulative_buckets_sum_count():
    reg = MetricRegistry()
    h = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    text = expose(reg)
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    # integral bounds render Go-client style, without the decimal
    assert 'lat_seconds_bucket{le="1"} 2' in text  # cumulative
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_sum 5.55" in text
    assert "lat_seconds_count 3" in text


def test_histogram_labels_combine_with_le():
    reg = MetricRegistry()
    reg.histogram("occ", labelnames=("component",),
                  buckets=(0.5,)).labels("CU0").observe(0.2)
    text = expose(reg)
    assert 'occ_bucket{component="CU0",le="0.5"} 1' in text
    assert 'occ_sum{component="CU0"} 0.2' in text


def test_integral_floats_render_without_decimal_point():
    reg = MetricRegistry()
    reg.counter("n_total").inc(12345.0)
    assert "n_total 12345\n" in expose(reg)


def test_exposition_parses_line_by_line():
    """Every non-comment line must be `name{labels} value`."""
    reg = MetricRegistry()
    reg.counter("a_total", "A.").inc(2)
    reg.gauge("b", labelnames=("x", "y")).labels("1", "2").set(3.5)
    reg.histogram("c", buckets=(1.0,)).observe(0.5)
    line_re = re.compile(
        r"^[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [0-9.eE+-]+|\+Inf$")
    for line in expose(reg).strip().splitlines():
        if line.startswith("#"):
            assert line.startswith(("# HELP ", "# TYPE "))
        else:
            assert line_re.match(line), line


def test_empty_registry_exposes_empty_string():
    assert expose(MetricRegistry()) == ""


def test_collectors_run_before_exposition():
    reg = MetricRegistry()
    c = reg.counter("pulled_total")
    reg.add_collector(lambda: c.set(99.0))
    assert "pulled_total 99" in expose(reg)


# ----------------------------------------------------------------------
# Label bodies are rendered once per child and spliced: same bytes
# ----------------------------------------------------------------------
def _fixture_registry():
    reg = MetricRegistry()
    hits = reg.counter("hits_total", "Hits, by component.\nSecond line.",
                       labelnames=("component", "kind"))
    hits.labels('GPU[0].L1"odd"', "read\\write").inc(3)
    hits.labels("line\nbreak", "plain").inc(1.5)
    hits.labels("gone", "soon").inc(7)
    assert hits.remove("gone", "soon")
    hits.labels("gone", "soon").inc(2)      # re-added: a fresh child
    reg.gauge("depth", "Unlabelled gauge.").set(-0.25)
    reg.gauge("level", labelnames=("buffer",)).labels("A.B0").set(4)
    lat = reg.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0, 2.5))
    for value in (0.05, 0.5, 5.0):
        lat.observe(value)
    occ = reg.histogram("occ_ratio", "Occupancy, by component.",
                        labelnames=("component",))
    occ.labels('CU"0"').observe(0.2)
    occ.labels('CU"0"').observe(0.95)
    occ.labels("back\\slash").observe(2.0)
    occ.labels("dropped").observe(0.5)
    assert occ.remove("dropped")
    occ.labels("dropped").observe(0.3)
    return reg


#: What ``expose(_fixture_registry())`` rendered before label bodies
#: were cached (PR 19's exposition.py), byte for byte.
GOLDEN = r'''# HELP depth Unlabelled gauge.
# TYPE depth gauge
depth -0.25
# HELP hits_total Hits, by component.\nSecond line.
# TYPE hits_total counter
hits_total{component="GPU[0].L1\"odd\"",kind="read\\write"} 3
hits_total{component="gone",kind="soon"} 2
hits_total{component="line\nbreak",kind="plain"} 1.5
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="2.5"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 5.55
lat_seconds_count 3
# TYPE level gauge
level{buffer="A.B0"} 4
# HELP occ_ratio Occupancy, by component.
# TYPE occ_ratio histogram
occ_ratio_bucket{component="CU\"0\"",le="0.1"} 0
occ_ratio_bucket{component="CU\"0\"",le="0.25"} 1
occ_ratio_bucket{component="CU\"0\"",le="0.5"} 1
occ_ratio_bucket{component="CU\"0\"",le="0.75"} 1
occ_ratio_bucket{component="CU\"0\"",le="0.9"} 1
occ_ratio_bucket{component="CU\"0\"",le="1"} 2
occ_ratio_bucket{component="CU\"0\"",le="+Inf"} 2
occ_ratio_sum{component="CU\"0\""} 1.15
occ_ratio_count{component="CU\"0\""} 2
occ_ratio_bucket{component="back\\slash",le="0.1"} 0
occ_ratio_bucket{component="back\\slash",le="0.25"} 0
occ_ratio_bucket{component="back\\slash",le="0.5"} 0
occ_ratio_bucket{component="back\\slash",le="0.75"} 0
occ_ratio_bucket{component="back\\slash",le="0.9"} 0
occ_ratio_bucket{component="back\\slash",le="1"} 0
occ_ratio_bucket{component="back\\slash",le="+Inf"} 1
occ_ratio_sum{component="back\\slash"} 2
occ_ratio_count{component="back\\slash"} 1
occ_ratio_bucket{component="dropped",le="0.1"} 0
occ_ratio_bucket{component="dropped",le="0.25"} 0
occ_ratio_bucket{component="dropped",le="0.5"} 1
occ_ratio_bucket{component="dropped",le="0.75"} 1
occ_ratio_bucket{component="dropped",le="0.9"} 1
occ_ratio_bucket{component="dropped",le="1"} 1
occ_ratio_bucket{component="dropped",le="+Inf"} 1
occ_ratio_sum{component="dropped"} 0.3
occ_ratio_count{component="dropped"} 1
'''


def test_fixture_registry_renders_the_golden_bytes_every_time():
    reg = _fixture_registry()
    assert expose(reg) == GOLDEN        # bodies rendered
    assert expose(reg) == GOLDEN        # bodies spliced from the cache
    reg.get("occ_ratio").labels("dropped").observe(0.3)
    reg.get("hits_total").labels("gone", "soon").inc()
    text = expose(reg)
    assert 'occ_ratio_count{component="dropped"} 2\n' in text
    assert 'hits_total{component="gone",kind="soon"} 3\n' in text


def test_remove_drops_the_rendered_label_body_with_the_child():
    reg = _fixture_registry()
    expose(reg)
    hits = reg.get("hits_total")
    assert ("gone", "soon") in hits._label_bodies
    assert hits.remove("gone", "soon")
    assert ("gone", "soon") not in hits._label_bodies
    assert 'component="gone"' not in expose(reg)
    assert len(hits._label_bodies) == 2


def test_golden_exposition_round_trips_through_the_parser():
    """Every sample of the registry's own snapshot comes back from the
    text — escapes undone, buckets cumulative — and nothing else does."""
    reg = _fixture_registry()
    families = parse_exposition(expose(reg))
    expected = 0
    for name, family in reg.snapshot().items():
        for sample in family["samples"]:
            labels = sample["labels"]
            if family["type"] != "histogram":
                assert (labels, sample["value"]) in families[name]["samples"]
                expected += 1
                continue
            assert families[name + "_bucket"]["type"] == "histogram"
            assert (labels, sample["count"]) in \
                families[name + "_count"]["samples"]
            assert (labels, sample["sum"]) in \
                families[name + "_sum"]["samples"]
            cumulative = 0
            for le, count in sample["buckets"].items():
                cumulative += count
                le = le if le == "+Inf" else f"{float(le):g}"
                assert ({**labels, "le": le}, cumulative) in \
                    families[name + "_bucket"]["samples"]
            expected += 2 + len(sample["buckets"])
    assert sum(len(f["samples"]) for f in families.values()) == expected
