"""Tests for the command-line interface."""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _build_parser, main


def test_workloads_lists_suite(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("aes", "bfs", "fir", "im2col", "kmeans", "matmul"):
        assert name in out
    assert "workgroups" in out


def test_run_completes(capsys):
    assert main(["run", "fir", "--chiplets", "1",
                 "--progress-interval", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert "events" in out


def test_run_with_monitor(capsys):
    assert main(["run", "fir", "--chiplets", "1", "--monitor",
                 "--progress-interval", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "AkitaRTM dashboard: http://127.0.0.1:" in out


@pytest.mark.slow
def test_run_buggy_l2_reports_hang(capsys):
    # The generic small config + kmeans stores may or may not deadlock;
    # use the aggressive storestorm-like path: fir is read-dominated and
    # must complete even with the bug armed.
    assert main(["run", "fir", "--chiplets", "1", "--buggy-l2",
                 "--progress-interval", "0.3"]) in (0, 1)


def test_demo_with_duration(capsys):
    assert main(["demo", "--duration", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "dashboard" in out
    assert "demo stopped" in out


@pytest.mark.slow
def test_study_command(capsys):
    assert main(["study"]) == 0
    out = capsys.readouterr().out
    assert "PT3, PT4, PT5" in out
    assert "matches paper Figure 6: True" in out


def test_trace_records_and_exports_perfetto(capsys, tmp_path):
    out_path = tmp_path / "fir.json"
    assert main(["trace", "fir", "--chiplets", "1",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "completed:" in out
    assert "events recorded" in out
    assert f"wrote perfetto trace to {out_path}" in out
    import json
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"]


def test_trace_jsonl_export(capsys, tmp_path):
    out_path = tmp_path / "fir.jsonl"
    assert main(["trace", "fir", "--chiplets", "1",
                 "--format", "jsonl", "--out", str(out_path)]) == 0
    from repro.trace import read_jsonl
    events = read_jsonl(out_path)
    assert events and events[0].seq == 0


def test_trace_sqlite_backend(capsys, tmp_path):
    db = tmp_path / "fir.db"
    assert main(["trace", "fir", "--chiplets", "1",
                 "--backend", "sqlite", "--db", str(db)]) == 0
    out = capsys.readouterr().out
    assert f"trace database: {db}" in out
    from repro.trace import SQLiteStore
    store = SQLiteStore(str(db))
    assert len(store) > 0
    store.close()


def test_trace_sqlite_requires_db(capsys):
    assert main(["trace", "fir", "--backend", "sqlite"]) == 2
    assert "--db" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "fir", "--chiplets", "0"],
    ["metrics", "fir", "--chiplets", "-1"],
    ["run", "fir", "--chiplets", "1", "--shards", "3"],
    ["trace", "fir", "--include", "["],
    ["trace", "fir", "--capacity", "0"],
    ["run", "fir", "--chiplets", "1", "--progress-interval", "0"],
    ["run", "fir", "--chiplets", "1", "--progress-interval", "-1"],
], ids=" ".join)
def test_input_no_run_can_take_is_one_error_line_and_exit_2(argv, capsys):
    """Not a traceback, not a run spinning out progress lines: the
    same answer as ``trace --backend sqlite`` without ``--db``."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1, captured.err


def test_trace_include_filter(capsys, tmp_path):
    out_path = tmp_path / "cu.jsonl"
    assert main(["trace", "fir", "--chiplets", "1",
                 "--include", r"CU\[", "--format", "jsonl",
                 "--out", str(out_path)]) == 0
    from repro.trace import read_jsonl
    events = read_jsonl(out_path)
    assert events
    assert all("CU[" in ev.component for ev in events)


def test_metrics_writes_exposition_file(capsys, tmp_path):
    out_path = tmp_path / "fir.prom"
    assert main(["metrics", "fir", "--chiplets", "1",
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote exposition" in out
    text = out_path.read_text()
    assert "# TYPE rtm_engine_events_total counter" in text
    assert "rtm_cache_hits_total" in text
    assert "rtm_hook_callback_seconds_total" in text


def test_metrics_dumps_to_stdout(capsys):
    assert main(["metrics", "fir", "--chiplets", "1"]) == 0
    captured = capsys.readouterr()
    assert "rtm_engine_events_total" in captured.out
    assert "# run completed" in captured.err


def test_workloads_json_catalog(capsys):
    assert main(["workloads", "--json"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    names = {entry["name"] for entry in catalog}
    # The fleet catalog: the paper's suite plus the crash-campaign
    # diagnostic — the contract fleet jobs are validated against.
    assert {"aes", "bfs", "fir", "im2col", "kmeans", "matmul",
            "storestorm"} <= names
    fir = next(e for e in catalog if e["name"] == "fir")
    assert fir["type"] == "FIR"
    assert "num_taps" in fir["params"]  # overridable via JobSpec.params
    assert fir["workgroups"] > 0
    assert fir["input_bytes"] > 0


@pytest.mark.slow
def test_fleet_run_small_campaign(capsys, tmp_path):
    status_out = tmp_path / "fleet_status.json"
    metrics_out = tmp_path / "fleet_metrics.txt"
    assert main(["fleet", "run", "--workers", "2",
                 "--workloads", "fir", "--chiplets", "1,2",
                 "--status-out", str(status_out),
                 "--metrics-out", str(metrics_out)]) == 0
    out = capsys.readouterr().out
    assert "fleet gateway: http://127.0.0.1:" in out
    assert "drained: 2 completed, 0 failed" in out

    status = json.loads(status_out.read_text())
    assert status["summary"]["completed"] == 2
    assert {j["spec"]["job_id"] for j in status["jobs"]} == \
        {"fir-c1", "fir-c2"}

    metrics = metrics_out.read_text()
    # Every job's series federates with (worker, job) labels — which
    # warm worker ran which job is the scheduler's business.
    assert 'job="fir-c1"' in metrics
    assert 'job="fir-c2"' in metrics
    assert 'worker="w' in metrics
    assert 'rtm_fleet_jobs{state="completed"} 2' in metrics


def test_fleet_run_rejects_unknown_workload(capsys):
    assert main(["fleet", "run", "--workloads", "doom"]) == 2
    assert "unknown workloads doom" in capsys.readouterr().err


def test_fleet_status_against_dead_gateway(capsys):
    assert main(["fleet", "status", "--url",
                 "http://127.0.0.1:9"]) == 1
    assert "connection refused" in capsys.readouterr().err


@pytest.mark.slow
def test_run_sigterm_exits_zero_after_flushing():
    # The satellite contract: a fleet manager (or operator) SIGTERMing
    # `repro run` gets a clean stop — engine aborted, exports flushed,
    # exit status 0.
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src"))
    env["PYTHONPATH"] = src
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "im2col",
         "--chiplets", "1", "--progress-interval", "0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        # Wait until the run is demonstrably underway, then interrupt.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if "state=running" in line:
                break
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "shutdown signal honoured" in out
    assert "interrupted" in out


@pytest.mark.slow
def test_trace_sigterm_exits_zero_with_a_flushed_database(tmp_path):
    # Every run-like command goes through the one guarded run: a
    # SIGTERMed `repro trace --backend sqlite` stops the engine, flushes
    # the store's pending batch and exits 0 (unguarded, the default
    # action killed it mid-batch and the finally: never ran).
    db = tmp_path / "im2col.db"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "trace", "im2col",
         "--chiplets", "1", "--backend", "sqlite", "--db", str(db)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        # The store creates its file before the run starts; give the
        # run a moment to be demonstrably underway, then interrupt.
        deadline = time.monotonic() + 60
        while not db.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        time.sleep(1.0)
        assert proc.poll() is None, "the run ended before the signal"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "interrupted:" in out
    assert f"trace database: {db}" in out
    from repro.trace import SQLiteStore
    store = SQLiteStore(str(db))
    assert len(store) > 0
    store.close()


def _children(pid):
    """Pids of *pid*'s child processes (forked by any of its threads)."""
    return {int(child) for path in Path(f"/proc/{pid}/task").glob("*/children")
            for child in path.read_text().split()}


@pytest.mark.slow
def test_sharded_run_ends_cleanly_on_a_group_sigint():
    # Ctrl-C signals the whole foreground process group: the CLI, the
    # shards' zygote and every shard.  The shards leave stopping to the
    # coordinator, which ends the run at the next barrier: `interrupted`,
    # exit 0, no traceback and no process left behind.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "storestorm",
         "--chiplets", "4", "--shards", "2", "--progress-interval", "0.1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, start_new_session=True)
    try:
        # The first progress line past window 0: the shards are booted
        # and the barrier loop is running.
        for line in proc.stdout:
            if line.startswith("shards=2 ") and "windows=0 " not in line:
                break
        assert proc.poll() is None, "the run ended before the signal"
        zygotes = _children(proc.pid)
        assert zygotes
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 0, err
    assert any(line.startswith("interrupted")
               for line in out.splitlines()), out
    assert "Traceback" not in err, err
    assert not [pid for pid in zygotes if Path(f"/proc/{pid}").exists()]


# ---------------------------------------------------------------------------
# The parser tree: no flag moved
# ---------------------------------------------------------------------------

def _parser_tree(parser, path=("repro",)):
    """One line per argument of *parser* and of every parser under it:
    the subcommand path, the option strings (or the positional's name),
    the default, the choices and the help text."""
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        name = " ".join(sorted(action.option_strings)) \
            or f"<{action.dest}>"
        choices = ",".join(sorted(action.choices)) \
            if action.choices else "-"
        text = " ".join((action.help or "-").split())
        yield (f"{' '.join(path)} | {name} | {action.default!r} | "
               f"{choices} | {text}")
        if isinstance(action, argparse._SubParsersAction):
            for child in sorted(action.choices):
                yield from _parser_tree(action.choices[child],
                                        path + (child,))


def _leaves(parser, path=()):
    subparsers = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield list(path)
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaves(child, path + (name,))


def test_parser_tree_is_the_one_committed_before_the_registry():
    """`cli_parser_tree.txt` is this walk of the parser at the commit
    before subcommands moved into their packages: every subcommand,
    flag, default, choice list and help string is where it was.  The
    one widening: every run-like command takes `storestorm`, as `run`
    always did (one `choices` list)."""
    suite = "aes,bfs,fir,im2col,kmeans,matmul | benchmark to execute"
    expected = []
    for line in (Path(__file__).parent
                 / "cli_parser_tree.txt").read_text().splitlines():
        if line.startswith(("repro trace | <workload>",
                            "repro metrics | <workload>",
                            "repro profile record | <workload>")):
            assert line.endswith(suite), line
            line = line.replace("matmul |", "matmul,storestorm |")
        expected.append(line)
    assert sorted(_parser_tree(_build_parser())) == expected


@pytest.mark.parametrize("leaf", list(_leaves(_build_parser())),
                         ids=" ".join)
def test_every_leaf_command_prints_its_help(leaf, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*leaf, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: repro {' '.join(leaf)}" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "doom"])
