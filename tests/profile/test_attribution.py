"""Layer classification, reports, summaries, merge and diff."""

from repro.profile import (LAYERS, attribution_report, classify_frame,
                           classify_path, classify_stack, diff_summaries,
                           make_summary, merge_summaries,
                           summary_stack_map)
from repro.profile.attribution import _SUMMARY_STACKS

ENGINE = ("run", "/repo/src/repro/akita/engine.py", 150)
HOOKS = ("invoke_hooks", "/repo/src/repro/akita/hooks.py", 40)
METRICS = ("_on_engine_hook", "/repo/src/repro/metrics/instrument.py", 200)
SERVER = ("_overview", "/repo/src/repro/core/server.py", 100)
TRANSPORT = ("_dispatch", "/repo/src/repro/core/http.py", 170)
WORKLOAD = ("issue", "/repo/src/repro/gpu/driver.py", 30)
STDLIB = ("dumps", "/usr/lib/python3.11/json/__init__.py", 120)
IDLE = ("wait", "/usr/lib/python3.11/threading.py", 295)


# ------------------------------------------------------------- classify
def test_classify_path_rules():
    assert classify_path(ENGINE[1]) == "engine"
    assert classify_path(HOOKS[1]) == "hooks"
    assert classify_path(METRICS[1]) == "metrics"
    assert classify_path(SERVER[1]) == "server"
    assert classify_path(TRANSPORT[1]) == "server"
    assert classify_path(WORKLOAD[1]) == "workload"
    assert classify_path("/repo/src/repro/core/monitor.py") == "monitor"
    assert classify_path("/repo/src/repro/fleet/worker.py") == "fleet"
    assert classify_path(STDLIB[1]) is None  # defers to its caller


def test_hooks_rule_wins_over_engine():
    # hooks.py lives inside repro/akita/: the more specific rule must
    # match first or the fan-out layer would vanish into "engine".
    assert classify_path("/x/repro/akita/hooks.py") == "hooks"
    assert classify_path("/x/repro/akita/queue.py") == "engine"


def test_classify_stack_is_leaf_first():
    assert classify_stack((METRICS, HOOKS, ENGINE)) == "metrics"
    assert classify_stack((HOOKS, ENGINE)) == "hooks"
    assert classify_stack((ENGINE,)) == "engine"


def test_classify_stack_stdlib_defers_to_caller():
    # json.dumps called from the server is server time.
    assert classify_stack((STDLIB, SERVER)) == "server"
    assert classify_stack((STDLIB, TRANSPORT)) == "server"
    assert classify_stack((STDLIB,)) == "other"


def test_classify_stack_parked_leaf_is_idle():
    # Event.wait parked inside the monitor's sampler loop: the thread
    # burns nothing, so its caller must not be charged.
    monitor = ("_sample_loop", "/repo/src/repro/core/monitor.py", 470)
    assert classify_stack((IDLE, IDLE, monitor)) == "idle"
    assert classify_frame(IDLE) == "idle"
    assert classify_frame(ENGINE) == "engine"
    assert "idle" in LAYERS and "other" in LAYERS


# -------------------------------------------------------------- reports
def _stack_map():
    return {
        "simulation": {
            (ENGINE,): 0.6,
            (HOOKS, ENGINE): 0.2,
            (METRICS, HOOKS, ENGINE): 0.1,
        },
        "server": {(STDLIB, SERVER): 0.05},
    }


def test_attribution_report_layers_and_threads():
    report = attribution_report(_stack_map(), duration=1.0, samples=50)
    assert report["samples"] == 50
    assert report["layers"]["engine"] == 0.6
    assert report["layers"]["hooks"] == 0.2
    assert report["layers"]["metrics"] == 0.1
    assert report["layers"]["server"] == 0.05
    assert abs(report["sampled_seconds"] - 0.95) < 1e-9
    assert set(report["threads"]) == {"simulation", "server"}
    assert "server" not in report["threads"]["simulation"]
    # Layers are sorted hottest-first.
    assert list(report["layers"])[0] == "engine"


def test_attribution_report_function_table():
    report = attribution_report(_stack_map(), duration=1.0, samples=50)
    by_name = {fn["name"]: fn for fn in report["functions"]}
    # run() is on every simulation stack: total covers all 0.9 s but
    # self only its own leaf time.
    assert abs(by_name["run"]["total"] - 0.9) < 1e-9
    assert abs(by_name["run"]["self"] - 0.6) < 1e-9
    assert by_name["run"]["layer"] == "engine"
    assert by_name["invoke_hooks"]["layer"] == "hooks"


# ------------------------------------------------- summaries/merge/diff
def test_summary_round_trips_through_stack_map():
    summary = make_summary(_stack_map(), duration=1.0, samples=50)
    rebuilt = summary_stack_map(summary)
    assert set(rebuilt) == {"simulation", "server"}
    assert abs(sum(rebuilt["simulation"].values()) - 0.9) < 1e-6
    assert summary["stacks_dropped"] == 0


def test_summary_bounds_stack_count():
    stacks = {"simulation": {
        (("f%d" % i, "/x/repro/akita/e.py", i),): 0.01
        for i in range(_SUMMARY_STACKS + 30)}}
    summary = make_summary(stacks, duration=1.0, samples=40)
    assert len(summary["stacks"]) == _SUMMARY_STACKS
    assert summary["stacks_dropped"] == 30


def test_merge_summaries_sums_layers_and_counts_jobs():
    one = make_summary(_stack_map(), duration=1.0, samples=50)
    merged = merge_summaries([one, one, {}])
    assert merged["jobs"] == 2
    assert merged["samples"] == 100
    assert abs(merged["layers"]["engine"] - 1.2) < 1e-6
    assert abs(merged["threads"]["simulation"] - 1.8) < 1e-6
    # Identical stacks from both jobs folded into one row each.
    assert len(merged["stacks"]) == len(one["stacks"])


def test_diff_summaries_reports_layer_and_function_deltas():
    a = make_summary(_stack_map(), duration=1.0, samples=50)
    heavier = _stack_map()
    heavier["simulation"][(HOOKS, ENGINE)] = 0.5  # hooks regressed
    b = make_summary(heavier, duration=1.0, samples=50)
    diff = diff_summaries(a, b)
    hooks = diff["layers"]["hooks"]
    assert abs(hooks["delta"] - 0.3) < 1e-6
    assert abs(hooks["ratio"] - 2.5) < 1e-6
    # The hottest mover leads the function table.
    assert diff["functions"][0]["name"] == "invoke_hooks"
    assert abs(diff["functions"][0]["delta"] - 0.3) < 1e-6


def test_diff_summaries_handles_one_empty_side():
    b = make_summary(_stack_map(), duration=1.0, samples=50)
    diff = diff_summaries({}, b)
    assert diff["layers"]["engine"]["a"] == 0.0
    assert diff["layers"]["engine"]["ratio"] is None
    assert diff["layers"]["engine"]["delta"] > 0
