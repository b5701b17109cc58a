"""The worker subprocess: event protocol, spec handling, serving."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.fleet.protocol import FrameDecoder, encode_command
from repro.fleet.worker import CONTROL_PREFIX, emit


def _worker_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def test_emit_writes_prefixed_flushed_json(capsys):
    emit({"event": "ready", "pid": 1})
    out = capsys.readouterr().out
    assert out.startswith(CONTROL_PREFIX)
    assert json.loads(out[len(CONTROL_PREFIX):]) == \
        {"event": "ready", "pid": 1}


@pytest.mark.slow
def test_warm_worker_serves_multiple_jobs_from_stdin():
    """One worker process: two run commands, two results, one URL."""
    commands = b"".join([
        encode_command({"cmd": "run", "attempt": 0,
                        "spec": {"job_id": "a", "workload": "fir",
                                 "params": {"num_samples": 2048}}}),
        encode_command({"cmd": "run", "attempt": 0,
                        "spec": {"job_id": "b", "workload": "fir",
                                 "params": {"num_samples": 2048}}}),
        encode_command({"cmd": "shutdown"}),
    ])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fleet.worker",
         "--worker-id", "w1"],
        input=commands, capture_output=True, timeout=120,
        env=_worker_env())
    assert proc.returncode == 0, proc.stderr.decode()
    events = list(FrameDecoder().feed(proc.stdout))
    kinds = [e["event"] for e in events if e["event"] != "progress"]
    # ready brackets every job: boot, after a, after b.
    assert kinds == ["ready", "started", "final-metrics", "done",
                     "ready", "started", "final-metrics", "done",
                     "ready"]
    readies = [e for e in events if e["event"] == "ready"]
    assert {r["url"] for r in readies} == {readies[0]["url"]}, \
        "the warm worker's URL must be stable across jobs"
    assert readies[0]["url"].startswith("http://127.0.0.1:")
    assert readies[0]["pid"] > 0
    assert readies[0]["port"] == \
        int(readies[0]["url"].rsplit(":", 1)[1])
    assert [r["jobs_done"] for r in readies] == [0, 1, 2]
    dones = [e for e in events if e["event"] == "done"]
    assert [d["job_id"] for d in dones] == ["a", "b"]
    assert all(d["ok"] for d in dones)
    assert all(d["run_state"] == "completed" and d["sim_time"] > 0
               and d["events"] > 0 for d in dones)
    # The final exposition rides the control channel (ahead of the
    # result, per the order above) so the gateway can keep serving a
    # job's series after the worker moves on or dies.
    finals = [e for e in events if e["event"] == "final-metrics"]
    assert all("rtm_engine_events_total" in f["metrics_text"]
               for f in finals)


@pytest.mark.slow
def test_warm_worker_rejects_bad_spec_and_keeps_serving():
    commands = b"".join([
        encode_command({"cmd": "run", "attempt": 0,
                        "spec": {"job_id": "bad",
                                 "workload": "nonesuch"}}),
        encode_command({"cmd": "nonsense"}),
        encode_command({"cmd": "run", "attempt": 0,
                        "spec": {"job_id": "good", "workload": "fir",
                                 "params": {"num_samples": 2048}}}),
        encode_command({"cmd": "shutdown"}),
    ])
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fleet.worker",
         "--worker-id", "w1"],
        input=commands, capture_output=True, timeout=120,
        env=_worker_env())
    assert proc.returncode == 0, proc.stderr.decode()
    events = list(FrameDecoder().feed(proc.stdout))
    failed = [e for e in events if e["event"] == "failed"]
    assert [f["run_state"] for f in failed] == ["rejected", "rejected"]
    assert "unknown workload" in failed[0]["error"]
    done = next(e for e in events if e["event"] == "done")
    assert done["job_id"] == "good" and done["ok"]
    # The worker re-announced readiness after each rejection.
    assert sum(1 for e in events if e["event"] == "ready") == 4


def test_warm_worker_exits_cleanly_on_stdin_eof():
    """An orphaned worker (manager gone, pipe closed) must not linger."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.fleet.worker",
         "--worker-id", "w1"],
        input=b"", capture_output=True, timeout=60, env=_worker_env())
    assert proc.returncode == 0, proc.stderr.decode()
    events = list(FrameDecoder().feed(proc.stdout))
    assert [e["event"] for e in events] == ["ready"]


@pytest.mark.slow
def test_sigterm_mid_job_aborts_it_flushes_the_result_and_exits_zero():
    """The module's documented contract: SIGTERM aborts the running
    job, its result still reaches the manager, no ``ready`` follows and
    the worker exits 0."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.fleet.worker", "--worker-id", "w1"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, bufsize=0, env=_worker_env())
    decoder, events = FrameDecoder(), []
    try:
        proc.stdin.write(encode_command(
            {"cmd": "run", "attempt": 0,
             "spec": {"job_id": "long", "workload": "fir",
                      "params": {"num_samples": 65536}}}))
        deadline = time.monotonic() + 60
        while not any(e["event"] == "progress" for e in events) \
                and time.monotonic() < deadline:
            chunk = proc.stdout.read(65536)
            assert chunk, proc.stderr.read().decode()
            events += decoder.feed(chunk)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err.decode()
    events += decoder.feed(out)
    first = [e["event"] for e in events].index("progress")
    assert [e["event"] for e in events[:first]] == ["ready", "started"]
    after = [e for e in events[first:] if e["event"] != "progress"]
    assert [e["event"] for e in after] == ["final-metrics", "failed"]
    assert after[-1]["job_id"] == "long"
    assert after[-1]["run_state"] == "aborted" and not after[-1]["ok"]
