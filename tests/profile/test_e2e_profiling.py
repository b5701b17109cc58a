"""Acceptance end-to-end: a monitored simulation under continuous
profiling decomposes its overhead into named layers (the layered
Figure 7), exports a loadable speedscope document, and two recorded
campaigns diff per layer through the historian.
"""

import json

import pytest

from repro.core import Monitor
from repro.gpu import GPUPlatform, GPUPlatformConfig
from repro.historian import Historian
from repro.metrics import expose
from repro.profile import SPEEDSCOPE_SCHEMA
from repro.workloads import FIR


@pytest.fixture(scope="module")
def profiled_run():
    """One real monitored run: metrics + sampler + rolling profiler."""
    platform = GPUPlatform(GPUPlatformConfig.small(num_chiplets=2))
    FIR(num_taps=64).enqueue(platform.driver)
    monitor = Monitor(platform.simulation)
    monitor.attach_driver(platform.driver)
    monitor.ensure_sim_metrics().start()
    monitor.start_sampler()
    profiler = monitor.start_continuous_profiling(interval=0.004,
                                                  window_seconds=0.25)
    ok = platform.run()
    profiler.stop()
    monitor.stop_server()
    assert ok, "monitored run did not complete"
    status = profiler.status()
    assert status["samples"] > 50 and status["windows_kept"] > 0
    return monitor, profiler


def test_attribution_names_layers_with_engine_dominant(profiled_run):
    """Figure 7's 51–163% decomposed: at least three named layers, and
    the simulator (engine dispatch + hook fan-out + the simulated
    hardware) is where a monitored simulation actually spends its
    active time — it out-weighs every monitoring layer.  Which of the
    simulator's own layers leads is not asserted: since PR 21 the
    engine's margin over ``workload`` is inside the sampling noise of a
    run this short."""
    _, profiler = profiled_run
    report = profiler.attribution()
    layers = {name: sec for name, sec in report["layers"].items()
              if sec > 0}
    assert len(layers) >= 3, layers
    simulator_layers = ("engine", "hooks", "workload")
    simulator = sum(layers.get(name, 0.0) for name in simulator_layers)
    assert layers.get("engine", 0.0) > 0
    for name, sec in layers.items():
        if name != "idle" and name not in simulator_layers:
            assert simulator > sec, \
                f"{name} ({sec}s) out-weighs the simulator ({simulator}s)"
    # The simulation thread's own breakdown is simulator-led too.
    assert "simulation" in report["threads"]
    sim = report["threads"]["simulation"]
    assert max(sim, key=sim.get) in simulator_layers


def test_layer_family_rides_the_registry(profiled_run):
    """The decomposition is a first-class metric family: it rides
    /metrics (and therefore SSE, federation and alert rules) free."""
    monitor, _ = profiled_run
    text = expose(monitor.metrics)
    assert "rtm_profile_layer_seconds_total" in text
    assert 'layer="engine"' in text
    assert 'thread="simulation"' in text


def test_speedscope_export_is_valid(profiled_run):
    _, profiler = profiled_run
    doc = json.loads(json.dumps(profiler.speedscope(name="e2e")))
    assert doc["$schema"] == SPEEDSCOPE_SCHEMA
    assert doc["profiles"], "no per-role profiles exported"
    roles = {p["name"] for p in doc["profiles"]}
    assert "simulation" in roles
    frames = doc["shared"]["frames"]
    assert frames
    for profile in doc["profiles"]:
        assert len(profile["samples"]) == len(profile["weights"])
        for sample in profile["samples"]:
            assert all(0 <= idx < len(frames) for idx in sample)


def test_historian_compare_reports_per_layer_delta(profiled_run,
                                                   tmp_path):
    """Two recorded campaigns: ``compare`` must carry a profile section
    with per-layer {a, b, delta, ratio} rows and moved functions."""
    _, profiler = profiled_run
    summary = profiler.summary()
    # Campaign B "regressed": the same profile, scaled up.
    heavier = json.loads(json.dumps(summary))
    heavier["layers"] = {k: round(v * 2, 4)
                         for k, v in heavier["layers"].items()}
    heavier["sampled_seconds"] = round(
        summary["sampled_seconds"] * 2, 4)
    for fn in heavier["functions"]:
        fn["self"] = round(fn["self"] * 2, 4)

    historian = Historian(str(tmp_path / "hist.db"))
    try:
        for campaign, payload in (("camp-a", summary),
                                  ("camp-b", heavier)):
            historian.begin_campaign(campaign)
            historian.record(campaign, "job",
                             {"state": "completed", "metrics_text": ""},
                             name="job-1")
            historian.record(campaign, "profile",
                             {"state": "completed", "attempt": 0,
                              "worker_id": "w1", "summary": payload},
                             name="job-1")
            historian.end_campaign(campaign)
        report = historian.compare("camp-a", "camp-b")
    finally:
        historian.close()

    profile = report["profile"]
    assert profile["jobs_profiled"] == {"a": 1, "b": 1}
    assert profile["layers"]
    for name, entry in profile["layers"].items():
        assert set(entry) >= {"a", "b", "delta", "ratio"}
        assert entry["delta"] == pytest.approx(entry["a"], rel=1e-3), \
            f"{name}: doubling a layer must show as delta == a"
    assert profile["functions"], "no per-function deltas"
    top = profile["functions"][0]
    assert top["delta"] > 0
