"""The examples are part of the public contract: run each as a script
and check its key output lines, so documentation rot shows up as a
test failure."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
def test_quickstart():
    out = _run("quickstart.py")
    assert "AkitaRTM dashboard: http://127.0.0.1:" in out
    assert "Done: completed" in out
    assert "kernel:fir" in out


@pytest.mark.slow
def test_case_study_im2col():
    out = _run("case_study_im2col.py")
    assert "simulation is healthy" in out
    assert "L1VROB top-port at 8/8" in out
    assert "ROB transactions" in out
    assert "network is the root cause" in out
    assert "matching the paper's finding" in out


@pytest.mark.slow
def test_case_study_hang_debug():
    out = _run("case_study_hang_debug.py")
    assert "HANG at t=" in out
    assert "L2[0].TopPort.Buf" in out
    assert "blocked on: send fetched data to local storage" in out
    assert "diagnosis: send fetched data to local storage" in out
    assert "progress=False" in out
    assert "completed=True" in out


@pytest.mark.slow
def test_fail_fast():
    out = _run("fail_fast.py")
    assert "armed: abort-on-hang policy" in out
    assert "state=aborted" in out
    assert "fired: GPU[0].L2[0].top_port.buf >= 16" in out
    assert "buffers still holding content" in out


@pytest.mark.slow
def test_record_timeseries(tmp_path):
    import subprocess
    import sys
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "record_timeseries.py"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    assert (tmp_path / "figure5_series.csv").is_file()
    assert (tmp_path / "figure5_series.json").is_file()
    assert "samples" in result.stdout


@pytest.mark.slow
def test_fault_injection(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "fault_injection.py"),
         str(tmp_path)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    assert "[PASS] write-buffer-stall" in out
    assert "watchdog verdict: aborted" in out
    assert "stalled buffer: " in out and "WriteBuffer" in out
    assert "[PASS] slow-network" in out
    assert "ALL PASS" in out
    assert list(tmp_path.glob("watchdog_postmortem_*.json"))


@pytest.mark.slow
def test_trace_capture(tmp_path):
    out_path = tmp_path / "trace.jsonl"
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "trace_capture.py"),
         str(out_path)],
        capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    out = result.stdout
    assert "trace events recorded" in out
    assert "messages dropped in transit:" in out
    assert "first dropped message:" in out
    assert "reconstructed path:" in out
    # The send hop must precede the drop in the rendered path.
    path_lines = out.split("reconstructed path:", 1)[1].splitlines()
    path_lines = [line.strip() for line in path_lines if line.strip()]
    assert path_lines[0].startswith("t=") and "sent" in path_lines[0]
    assert any("DROPPED in transit" in line for line in path_lines)
    assert out_path.is_file() and out_path.stat().st_size > 0


@pytest.mark.slow
def test_metrics_scrape():
    out = _run("metrics_scrape.py")
    final = out.split("final scrape:", 1)[1]
    assert final.split()[:4] == ["position", "callbacks", "seconds",
                                 "ns/call"]
    # The per-position cost table: the engine's start hook ran once.
    rows = {line.split()[0]: line.split()[1:]
            for line in final.splitlines()
            if line.startswith("  engine_")}
    assert rows["engine_start"][0] == "1"
    assert "callback share:" in final
    assert "run complete:" in final and "events" in final


@pytest.mark.slow
def test_fleet_sweep():
    out = _run("fleet_sweep.py")
    assert "fleet gateway: http://127.0.0.1:" in out
    assert "campaign drained" in out
    assert "fir-c1: completed after 2 attempt(s)" in out
    assert "watchdog verdict: aborted" in out
    assert "summary: 3 completed, 0 failed, 1 retries" in out
    # Two warm workers served all four attempts, and every *job*
    # appears in the single federated scrape with its worker label.
    series_line = next(line for line in out.splitlines()
                       if line.startswith("federated scrape series:"))
    for job_id in ("fir-c1", "fir-c2", "fir-c3"):
        assert job_id in series_line, series_line


@pytest.mark.slow
def test_custom_simulator():
    out = _run("custom_simulator.py")
    assert "<-- the slow component's input" in out
    analyzer_lines = [line for line in out.splitlines()
                      if "C.In.Buf" in line]
    assert analyzer_lines and "slow component" in analyzer_lines[0]
    assert "chain drained: D processed 50000 requests" in out
    # The route the example registered, served beside the built-in ones.
    assert ("GET /api/chain -> {'B': 50000, 'C': 50000, 'D': 50000}"
            in out)


@pytest.mark.slow
def test_historian_campaigns():
    out = _run("historian_campaigns.py", timeout=400)
    assert "campaign baseline: drained" in out
    assert "campaign candidate: drained" in out
    # Post-hoc inventory: the candidate campaign carries the stall's
    # watchdog verdict and the deduplicated alert firing.
    assert "post-mortem fir-c1: verdict=aborted" in out
    assert ("alert transition: rtm_fleet_job_retries_total >= 1 "
            "-> firing") in out
    assert out.count("-> firing") == 1
    # The comparison names every job from both campaigns.
    assert ("compare baseline (fir-c1, fir-c2) vs "
            "candidate (fir-c1, fir-c2, fir-c3)") in out
    assert "historian database:" in out
