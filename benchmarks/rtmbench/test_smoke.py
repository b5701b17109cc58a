"""Smoke test of the harness (not in tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/rtmbench/test_smoke.py -q

One round of all six workloads at reduced sizes, traced, in well under
20 s: validates the document schema, that every named metric is
present for the workloads that report it, and that ``BENCHMARK.json``
and ``spec.py`` name the same things.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.rtmbench import report, spec

REPO = Path(__file__).resolve().parents[2]
E2E = {m.name for m in spec.END_TO_END}

#: Workload-measured per-layer metrics and who must report them (the
#: microbenchmarks are reported once, in the document's ``layers``).
REPORTED_BY = {
    "gpu.fir_us_per_event": spec.SIM_WORKLOADS,
    "gpu.im2col_us_per_event": ("bare",),
    "gpu.build_ms": spec.SIM_WORKLOADS,
    "workloads.enqueue_ms": spec.SIM_WORKLOADS,
    "core.attach_ms": ("watched", "instrumented", "scraped"),
    "core.server_start_ms": ("watched", "instrumented", "scraped"),
    "core.idle_monitor_ratio": ("watched",),
    "core.api_p50_ms": ("watched", "scraped"),
    "core.api_p95_ms": ("watched", "scraped"),
    "core.requests": ("watched", "scraped"),
    "core.request_failures": ("watched", "scraped"),
    "core.reads_per_s": ("scraped",),
    "metrics.hook_s_per_mevent": ("instrumented", "scraped"),
    "trace.events_recorded": ("instrumented", "scraped"),
    "trace.events_dropped": ("instrumented", "scraped"),
    "profile.overhead_ratio": spec.SIM_WORKLOADS,
    "profile.samples": spec.SIM_WORKLOADS,
    "profile.summary_ms": spec.SIM_WORKLOADS,
    "akita.engine_s_per_mevent": spec.SIM_WORKLOADS,
    "akita.hooks_s_per_mevent": spec.SIM_WORKLOADS,
    "gpu.workload_s_per_mevent": spec.SIM_WORKLOADS,
    "metrics.s_per_mevent": spec.SIM_WORKLOADS,
    "trace.s_per_mevent": spec.SIM_WORKLOADS,
    "core.server_s_per_mevent": spec.SIM_WORKLOADS,
    "core.monitor_s_per_mevent": spec.SIM_WORKLOADS,
    "profile.s_per_mevent": spec.SIM_WORKLOADS,
    "fleet.jobs_per_s": ("fleet",),
    "fleet.dispatch_ms_per_job": ("fleet",),
    "fleet.boot_s": ("fleet",),
    "fleet.torn_frames": ("fleet",),
    "fleet.retries": ("fleet",),
    "historian.rows": ("fleet",),
    "historian.lost": ("fleet",),
    "shard.speedup": ("sharded",),
    "shard.barrier_wait_s": ("sharded",),
    "shard.wall_per_window_ms": ("sharded",),
    "shard.boot_s": ("sharded",),
    "shard.windows": ("sharded",),
    "shard.boundary_msgs": ("sharded",),
}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("rtmbench")
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.rtmbench", "--smoke",
         "--seed", "3", "--trace", "--table", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    document = json.loads((out / "result.json").read_text())
    spans = json.loads((out / "spans.json").read_text())
    return proc.stdout, document, spans


def test_document_schema(smoke):
    _, document, _ = smoke
    assert document["schema"] == "rtmbench/1"
    assert document["comparable"] is False, "smoke must be stamped"
    assert set(document["host"]) == {"nproc", "affinity", "python",
                                     "commit", "load1"}
    assert document["seed"] == 3
    assert list(document["workloads"]) == list(spec.WORKLOADS)
    for block in document["workloads"].values():
        assert set(block) == {"end_to_end", "ops", "failed", "rounds",
                              "layers", "checks"}
        assert block["failed"] == 0 and block["ops"] >= 1
        assert block["rounds"], "per-round raw samples kept"
    assert not report.failed_checks(document)
    assert {"fir", "im2col", "storestorm"} <= set(document["exact"])


def test_every_named_metric_is_reported(smoke):
    _, document, _ = smoke
    blocks = document["workloads"]
    for name, block in blocks.items():
        assert set(block["end_to_end"]) == E2E, name
        for metric, entry in block["end_to_end"].items():
            assert entry["value"] > 0 and entry["samples"], (name, metric)
    micro = set(document["layers"])
    named = {m.name for m in spec.PER_LAYER}
    assert micro | set(REPORTED_BY) == named
    assert not micro & set(REPORTED_BY)
    for metric, workloads in REPORTED_BY.items():
        for name in workloads:
            assert metric in blocks[name]["layers"], (metric, name)


def test_result_line_and_table(smoke):
    stdout, document, _ = smoke
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    # Traced: every per-layer metric, for every workload.
    assert set(line["metrics"]) == {
        f"{m.name}@{w}" for m in spec.PER_LAYER for w in spec.WORKLOADS}
    assert "NOT comparable" in stdout
    assert report.table(document) in stdout


def test_spans_have_self_time(smoke):
    _, _, spans = smoke
    names = {row["name"] for row in spans}
    assert {"child", "spawn", "import", "gpu.build", "workloads.enqueue",
            "core.attach", "core.start_server", "metrics.start",
            "trace.start", "run", "http.overview", "http.metrics_text",
            "fleet.boot", "fleet.campaign", "fleet.job", "shard.boot",
            "shard.run", "teardown"} <= names
    by_id = {row["id"]: row for row in spans}
    for row in spans:
        assert set(row) == {"id", "name", "layer", "start", "end",
                            "parent", "run_id", "self_s"}
        assert -1e-6 <= row["self_s"] <= row["end"] - row["start"] + 1e-9
        if row["parent"] is not None:
            assert by_id[row["parent"]]["run_id"].split("/")[0] \
                == row["run_id"].split("/")[0]


def test_benchmark_json_names_the_same_things():
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/rtmbench"]
    assert contract["run_seconds"] == spec.RUN_SECONDS
    assert {w["name"]: w["why"] for w in contract["workloads"]} \
        == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] \
        == [tuple(m[:4]) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] \
        == [tuple(m[:3]) for m in spec.PER_LAYER]
    for metric in spec.PER_LAYER:
        assert metric.name.split(".")[0] in spec.LAYERS
        assert metric.moves in ("guard", "exact") or "@" in metric.moves


def test_compare_flags_a_regression(smoke, tmp_path):
    _, document, _ = smoke
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(document))
    worse = json.loads(json.dumps(document))
    entry = worse["workloads"]["bare"]["end_to_end"]["wall_s"]
    entry["samples"] = [v * 2 for v in entry["samples"]]
    b.write_text(json.dumps(worse))
    text, any_worse = report.compare(str(a), str(a))
    assert not any_worse and "worse" not in text
    text, any_worse = report.compare(str(a), str(b))
    assert any_worse
    row = next(line for line in text.splitlines()
               if line.startswith("bare") and "wall_s" in line)
    assert row.endswith("worse")
