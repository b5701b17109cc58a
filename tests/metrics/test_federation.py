"""Label injection and multi-worker federation of text expositions."""

from repro.core.http import HTTPServerThread, Response
from repro.metrics import (MetricRegistry, expose, federate,
                           federate_sources, inject_labels)


# ---------------------------------------------------------------------------
# inject_labels
# ---------------------------------------------------------------------------

def test_inject_adds_brace_block_to_bare_samples():
    text = "rtm_events_total 42\n"
    assert inject_labels(text, {"worker": "w1"}) == \
        'rtm_events_total{worker="w1"} 42\n'


def test_inject_prepends_to_existing_labels():
    text = 'rtm_jobs{state="queued"} 3\n'
    assert inject_labels(text, {"worker": "w2"}) == \
        'rtm_jobs{worker="w2",state="queued"} 3\n'


def test_inject_skips_samples_already_carrying_the_label():
    text = 'rtm_jobs{worker="w9",state="queued"} 3\n'
    assert inject_labels(text, {"worker": "w1"}) == text


def test_inject_leaves_comments_and_blank_lines_alone():
    text = ("# HELP rtm_x Things.\n"
            "# TYPE rtm_x counter\n"
            "\n"
            "rtm_x 1\n")
    out = inject_labels(text, {"worker": "w1"})
    assert "# HELP rtm_x Things." in out
    assert "# TYPE rtm_x counter" in out
    assert 'rtm_x{worker="w1"} 1' in out


def test_inject_escapes_label_value():
    out = inject_labels("m 1\n", {"worker": 'we"ird\\'})
    assert out == 'm{worker="we\\"ird\\\\"} 1\n'


def test_inject_real_exposition_round_trips():
    registry = MetricRegistry()
    registry.counter("jobs_total", "Jobs.").inc(5)
    gauge = registry.gauge("load", "Load.", ("cpu",))
    gauge.labels("0").set(0.5)
    out = inject_labels(expose(registry), {"worker": "w1"})
    assert 'jobs_total{worker="w1"} 5' in out
    assert 'load{worker="w1",cpu="0"} 0.5' in out


# ---------------------------------------------------------------------------
# federate
# ---------------------------------------------------------------------------

_W1 = {"worker": "w1"}
_W2 = {"worker": "w2"}


def _exposition(value):
    return ("# HELP rtm_events_total Simulation events.\n"
            "# TYPE rtm_events_total counter\n"
            f"rtm_events_total {value}\n")


def test_federate_labels_every_worker():
    out = federate([(_W1, _exposition(10)), (_W2, _exposition(20))])
    assert 'rtm_events_total{worker="w1"} 10' in out
    assert 'rtm_events_total{worker="w2"} 20' in out


def test_federate_emits_headers_once_and_groups_families():
    out = federate([(_W1, _exposition(1)), (_W2, _exposition(2))])
    lines = out.splitlines()
    assert lines.count("# HELP rtm_events_total Simulation events.") == 1
    assert lines.count("# TYPE rtm_events_total counter") == 1
    # Both samples are contiguous, right after the headers.
    idx = lines.index("# TYPE rtm_events_total counter")
    assert lines[idx + 1].startswith("rtm_events_total{")
    assert lines[idx + 2].startswith("rtm_events_total{")


def test_federate_first_help_wording_wins():
    a = "# HELP m First wording.\n# TYPE m gauge\nm 1\n"
    b = "# HELP m Second wording.\n# TYPE m gauge\nm 2\n"
    out = federate([(_W1, a), (_W2, b)])
    assert "First wording." in out
    assert "Second wording." not in out


def test_federate_groups_histogram_series_under_base_family():
    text = ("# HELP lat Latency.\n"
            "# TYPE lat histogram\n"
            'lat_bucket{le="0.5"} 1\n'
            'lat_bucket{le="+Inf"} 2\n'
            "lat_sum 0.7\n"
            "lat_count 2\n")
    out = federate([(_W1, text), (_W2, text)])
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    # All 8 series stay under the single pair of headers, workers
    # interleaved by family, not split into separate family blocks.
    assert len(lines) == 8
    assert out.splitlines().count("# TYPE lat histogram") == 1


def test_federate_prepends_preamble_unlabelled():
    preamble = ("# HELP rtm_fleet_workers_live Live workers.\n"
                "# TYPE rtm_fleet_workers_live gauge\n"
                "rtm_fleet_workers_live 2\n")
    out = federate([(_W1, _exposition(1))], preamble=preamble)
    assert out.startswith("# HELP rtm_fleet_workers_live")
    assert "rtm_fleet_workers_live 2\n" in out  # no worker label


def test_federate_empty_input_is_empty():
    assert federate([]) == ""


def test_federate_worker_unique_families_pass_through():
    extra = "# HELP only_w2 Special.\n# TYPE only_w2 gauge\nonly_w2 9\n"
    out = federate([(_W1, _exposition(1)),
                    (_W2, _exposition(2) + extra)])
    assert 'only_w2{worker="w2"} 9' in out


# ---------------------------------------------------------------------------
# federate_sources
# ---------------------------------------------------------------------------

def test_sources_final_text_wins_over_a_live_url():
    live = HTTPServerThread({("GET", "/metrics"):
                             lambda server, params: Response(
                                 _exposition(7).encode(), "text/plain")})
    live.start()
    try:
        out = federate_sources([
            ("shard 0", {"shard": "0"}, _exposition(1), live.url),
            ("shard 1", {"shard": "1"}, None, live.url)])
    finally:
        live.stop()
    assert 'rtm_events_total{shard="0"} 1' in out   # cached final
    assert 'rtm_events_total{shard="1"} 7' in out   # scraped live
    assert "unreachable" not in out


def test_sources_dead_url_is_one_comment_not_an_exception():
    preamble = "# TYPE own gauge\nown 1\n"
    out = federate_sources(
        [("worker w1", _W1, None, "http://127.0.0.1:9"),
         ("worker w2", _W2, _exposition(2), None),
         ("shard 3", {"shard": "3"}, None, None)],
        preamble=preamble)
    lines = out.splitlines()
    assert lines[:2] == preamble.splitlines()
    assert 'rtm_events_total{worker="w2"} 2' in lines
    assert [l for l in lines if "unreachable" in l] == lines[-2:]
    assert lines[-2].startswith("# worker w1 unreachable: ")
    assert lines[-1] == "# shard 3 unreachable: no URL to scrape"
