"""The warm worker's reset: back-to-back jobs must not share state.

A warm worker keeps its process (interpreter, imports, HTTP server)
across jobs and rebuilds the simulation object graph per job.  These
tests run consecutive jobs through one server — exactly what
``serve()`` does per ``run`` command — and check the second job's
metrics exposition, trace window and fault machinery carry nothing
over from the first.
"""

import re

import pytest

from repro.core import Monitor
from repro.core.server import RTMServer
from repro.fleet.protocol import FrameDecoder
from repro.fleet.queue import JobSpec
from repro.fleet.worker import WorkerSettings, _execute_job

pytestmark = pytest.mark.slow


def _spec(job_id, **kwargs):
    kwargs.setdefault("params", {"num_samples": 2048})
    spec = JobSpec(job_id, "fir", **kwargs)
    spec.validate()
    return spec


def _events_from(capsys):
    return FrameDecoder().feed(capsys.readouterr().out.encode())


def _sample_value(exposition, family):
    match = re.search(rf"^{family}(?:{{[^}}]*}})? (\S+)$",
                      exposition, re.MULTILINE)
    assert match is not None, f"{family} missing from exposition"
    return float(match.group(1))


@pytest.fixture()
def warm_server():
    server = RTMServer(Monitor())
    server.start()
    yield server
    server.stop()


def test_identical_jobs_produce_identical_independent_metrics(
        warm_server, capsys):
    """Same spec twice on one worker: if engine time, metric counters
    or trace records bled between jobs, the second run's numbers would
    drift (e.g. doubled counters).  They must match the first's."""
    settings = WorkerSettings()
    assert _execute_job(_spec("a", trace=True), 0, warm_server,
                        settings)
    assert _execute_job(_spec("b", trace=True), 0, warm_server,
                        settings)
    events = _events_from(capsys)

    dones = {e["job_id"]: e for e in events if e["event"] == "done"}
    assert set(dones) == {"a", "b"}
    a, b = dones["a"], dones["b"]
    # A deterministic workload re-run from a clean slate reproduces
    # exactly; any bleed shows up as drift in these totals.
    assert a["events"] == b["events"] > 0
    assert a["sim_time"] == b["sim_time"] > 0

    # Trace windows are per-job ring stores, so their volumes match too.
    assert a["trace"]["store"]["recorded"] == \
        b["trace"]["store"]["recorded"] > 0
    assert b["trace"]["store"]["dropped"] == a["trace"]["store"]["dropped"]

    finals = {e["job_id"]: e["metrics_text"] for e in events
              if e["event"] == "final-metrics"}
    assert set(finals) == {"a", "b"}
    for family in ("rtm_engine_events_total",
                   "rtm_engine_sim_time_seconds"):
        assert _sample_value(finals["a"], family) == \
            _sample_value(finals["b"], family) > 0


def test_fault_machinery_does_not_survive_into_the_next_job(
        warm_server, capsys):
    """Job one is sabotaged with a stall fault and aborted by the
    watchdog; job two on the same worker must run clean — no armed
    fault, no watchdog verdict, a completed run."""
    settings = WorkerSettings()
    sabotaged = _spec("sabotaged",
                      fault={"kind": "stall", "target": "*WriteBuffer*",
                             "start": 5e-7})
    assert not _execute_job(sabotaged, 0, warm_server, settings)
    assert _execute_job(_spec("clean"), 0, warm_server, settings)
    events = _events_from(capsys)

    results = {e["job_id"]: e for e in events
               if e["event"] in ("done", "failed")}
    assert results["sabotaged"]["ok"] is False
    assert results["sabotaged"]["watchdog"]["verdict"] == "aborted"
    assert results["sabotaged"]["fault_stats"]

    clean = results["clean"]
    assert clean["ok"] is True
    assert clean["run_state"] == "completed"
    assert clean["fault_stats"] == {}  # no injector carried over
    # A clean run's watchdog has no incident to report.
    assert clean["watchdog"] is None


def test_the_server_spans_jobs_but_fronts_each_jobs_monitor(
        warm_server, capsys):
    """The worker's URL is process-lifetime; what it serves is not:
    each job rebinds the server to its own fresh monitor."""
    settings = WorkerSettings()
    url_before = warm_server.url
    monitors = []
    for job_id in ("a", "b"):
        _execute_job(_spec(job_id), 0, warm_server, settings)
        monitors.append(warm_server.monitor)
    assert warm_server.url == url_before
    assert monitors[0] is not monitors[1]
    _events_from(capsys)  # drain capture
