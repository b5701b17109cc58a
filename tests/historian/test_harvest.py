"""The harvest costs what finished since the last tick, not the
campaign: jobs already recorded are told apart *before* anything is
serialised (``Job.to_dict`` is a ``dataclasses.asdict`` of the spec and
every failure record — once per job per tick made a campaign's
recording quadratic in its length)."""

from repro.fleet import JobQueue, JobSpec
from repro.fleet.queue import Job
from repro.historian import Historian, HistorianService


class _Manager:
    """``FleetManager``'s views, as far as a harvest may look."""

    def __init__(self, queue):
        self.queue = queue

    def terminal_jobs(self, already):
        return self.queue.terminal_jobs(already)

    def final_metrics(self):
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
