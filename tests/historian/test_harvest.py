"""The harvest costs what finished since the last tick, not the
campaign: jobs already recorded are told apart *before* anything is
serialised (``Job.to_dict`` is a ``dataclasses.asdict`` of the spec and
every failure record — once per job per tick made a campaign's
recording quadratic in its length)."""

from types import SimpleNamespace

from repro.fleet import FleetManager, JobQueue, JobSpec
from repro.fleet.queue import Job
from repro.historian import Historian, HistorianService


class _Manager:
    """``FleetManager``'s views, as far as a harvest may look."""

    def __init__(self, queue):
        self.queue = queue

    def final_metrics(self):
        return {}

    def profiles(self):
        return {}


def test_a_tick_serialises_only_the_jobs_that_just_finished(
        tmp_path, monkeypatch):
    queue = JobQueue()
    specs = [JobSpec(f"j{i}", "fir", max_retries=0) for i in range(203)]
    queue.submit_all(specs)
    for spec in specs[:200]:
        queue.claim("w1")
        queue.complete(spec.job_id, {"run_state": "completed"})
    historian = Historian(tmp_path / "h.db")
    service = HistorianService(historian, campaign_id="c",
                               manager=_Manager(queue), interval=60.0)
    service.tick()
    assert service.status()["jobs_recorded"] == 200

    serialised = []
    to_dict = Job.to_dict
    monkeypatch.setattr(
        Job, "to_dict",
        lambda job: serialised.append(job.spec.job_id) or to_dict(job))
    service.tick()
    assert serialised == []          # nothing new, nothing serialised
    queue.claim("w1")
    queue.complete("j200")
    queue.claim("w2")                # j201 running: not harvested yet
    service.tick()
    assert serialised == ["j200"]
    queue.fail("j201", "boom")       # terminal: max_retries=0
    service.tick(final=True)
    assert serialised == ["j200", "j201"]
    rows = historian.query(campaign_id="c", kind="job", limit=1000)
    assert len(rows) == 202
    assert {row["name"] for row in rows} == {f"j{i}" for i in range(202)}
    historian.close()


def test_a_job_record_keeps_the_result_the_manager_settled(tmp_path):
    """The manager's result names its event count ``events`` and its
    restore ``resume``; the job record once kept only the keys it shared
    with an older result shape (``run_state``, ``sim_time``)."""
    queue = JobQueue()
    manager = FleetManager(queue, num_workers=1)  # never started
    queue.submit(JobSpec("j", "fir"))
    queue.claim("w1")
    resume = {"path": "j.rtm", "sim_time": 5e-06, "events": 12000,
              "checkpoint_seq": 3}
    manager._settle_job(
        SimpleNamespace(worker_id="w1", job_id="j", attempt=1,
                        jobs_done=0, state="running"),
        {"event": "done", "job_id": "j", "attempt": 1, "ok": True,
         "run_state": "completed", "sim_time": 1e-05, "events": 24217,
         "watchdog": None, "fault_stats": {}, "trace": None,
         "resume": resume, "checkpoints": None})
    historian = Historian(tmp_path / "h.db")
    HistorianService(historian, campaign_id="c", manager=manager,
                     interval=60.0).tick(final=True)
    (record,) = historian.jobs("c")
    result = record["payload"]["result"]
    assert result == queue.get("j").result
    assert result["events"] == 24217 and result["resume"] == resume
    historian.close()


def test_a_failing_snapshot_source_is_counted_and_the_harvest_runs(
        tmp_path):
    """A source that raises skips the snapshot, not the tick: the
    failure is counted, its error kept in ``status()`` (what
    ``/api/historian`` serves), and finished jobs are still recorded."""
    queue = JobQueue()
    queue.submit(JobSpec("j", "fir"))
    queue.claim("w1")
    queue.complete("j", {"run_state": "completed"})

    def unreachable():
        raise ConnectionError("gateway gone")

    historian = Historian(tmp_path / "h.db")
    service = HistorianService(historian, campaign_id="c",
                               manager=_Manager(queue), interval=60.0)
    service.source = unreachable
    service.tick()
    service.tick()
    status = service.status()
    assert status["source_failures"] == 2
    assert status["last_source_error"] == "ConnectionError: gateway gone"
    assert status["snapshots_recorded"] == 0
    assert status["jobs_recorded"] == 1
    assert [row["name"] for row in historian.jobs("c")] == ["j"]
    historian.close()
