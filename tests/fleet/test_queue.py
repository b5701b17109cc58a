"""JobQueue scheduling semantics: ordering, retries, duplicates."""

import pytest

from repro.fleet import JobQueue, JobSpec
from repro.workloads import WORKLOADS


def _spec(job_id="j1", **kwargs):
    kwargs.setdefault("workload", "fir")
    return JobSpec(job_id, **kwargs)


# ---------------------------------------------------------------------------
# JobSpec validation (the workloads --json catalog contract)
# ---------------------------------------------------------------------------

def test_catalog_has_the_suite_plus_storestorm():
    assert {"aes", "bfs", "fir", "im2col", "kmeans",
            "matmul", "storestorm"} <= set(WORKLOADS)
    for name in WORKLOADS:
        _spec(workload=name).validate()


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError, match="unknown workload"):
        _spec(workload="nonesuch").validate()


def test_unknown_workload_param_is_rejected():
    with pytest.raises(ValueError, match="parameter"):
        _spec(params={"bogus_knob": 3}).validate()


def test_param_overrides_build_the_workload():
    spec = _spec(params={"num_taps": 4})
    spec.validate()
    assert spec.build_workload().num_taps == 4


def test_fault_without_kind_is_rejected():
    with pytest.raises(ValueError, match="kind"):
        _spec(fault={"target": "*"}).validate()


def test_spec_round_trips_through_dict():
    spec = _spec(chiplets=3, fault={"kind": "stall", "target": "*"},
                 max_retries=2, trace=True)
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone == spec


@pytest.fixture
def fir_builds(monkeypatch):
    """Every FIR instance constructed while the test runs, in order."""
    from repro.workloads import FIR

    built = []
    post_init = FIR.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FIR, "__post_init__", counting)
    return built


def test_validation_builds_the_catalog_once_for_a_campaign(fir_builds):
    """The catalog is the name table, built once at import: submitting
    N jobs checks names and parameters against the class and builds no
    workload at all."""
    queue = JobQueue()
    queue.submit_all([_spec(f"j{i}", params={"num_taps": 4})
                      for i in range(25)])
    assert fir_builds == []


def test_cached_schema_does_not_leak_workload_instances(fir_builds):
    """build_workload must hand out a fresh instance per call even
    though validation needs no instance — jobs must not share state
    through the catalog."""
    spec_a, spec_b = _spec("a", params={"num_taps": 4}), _spec("b")
    spec_a.validate(), spec_b.validate()
    assert fir_builds == []
    built_a, built_b = spec_a.build_workload(), spec_b.build_workload()
    again = spec_a.build_workload()
    assert fir_builds == [built_a, built_b, again]
    assert built_a is not built_b and built_a is not again
    assert built_a.num_taps == again.num_taps == 4


# ---------------------------------------------------------------------------
# Queue ordering and claiming
# ---------------------------------------------------------------------------

def test_fifo_claim_order():
    queue = JobQueue()
    queue.submit_all([_spec("a"), _spec("b"), _spec("c")])
    assert [queue.claim("w1").spec.job_id for _ in range(3)] == \
        ["a", "b", "c"]
    assert queue.claim("w1") is None


def test_duplicate_job_id_is_an_error():
    queue = JobQueue()
    queue.submit(_spec("a"))
    with pytest.raises(ValueError, match="duplicate"):
        queue.submit(_spec("a"))


def test_claim_marks_running_and_records_worker():
    queue = JobQueue()
    queue.submit(_spec("a"))
    job = queue.claim("w7")
    assert job.state == "running"
    assert job.worker_id == "w7"
    assert job.workers == ["w7"]


# ---------------------------------------------------------------------------
# Restart policy
# ---------------------------------------------------------------------------

def test_failed_job_requeues_at_the_front():
    queue = JobQueue()
    queue.submit_all([_spec("a", max_retries=1), _spec("b")])
    queue.claim("w1")  # a
    queue.fail("a", "boom")
    # The retry must not starve behind b.
    assert queue.claim("w2").spec.job_id == "a"


def test_retry_exhaustion_marks_terminal_failure():
    queue = JobQueue()
    queue.submit(_spec("a", max_retries=2))
    for attempt in range(3):
        job = queue.claim(f"w{attempt + 1}")
        assert job.attempt == attempt
        queue.fail("a", f"boom {attempt}", {"exit_code": 1})
    job = queue.get("a")
    assert job.state == "failed"
    assert len(job.failures) == 3
    assert job.failures[-1]["post_mortem"] == {"exit_code": 1}
    assert queue.claim("w9") is None
    assert queue.done


def test_zero_retries_fails_on_first_crash():
    queue = JobQueue()
    queue.submit(_spec("a", max_retries=0))
    queue.claim("w1")
    queue.fail("a", "boom")
    assert queue.get("a").state == "failed"
    assert not queue._pending


def test_retries_counter_excludes_the_terminal_attempt():
    queue = JobQueue()
    queue.submit(_spec("a", max_retries=1))
    queue.claim("w1")
    queue.fail("a", "first")   # requeued: 1 retry
    queue.claim("w2")
    queue.fail("a", "second")  # terminal: not a retry
    job = queue.get("a")
    assert job.retries == 1
    assert queue.counts()["retries"] == 1


def test_complete_records_result_and_counts():
    queue = JobQueue()
    queue.submit_all([_spec("a"), _spec("b")])
    queue.claim("w1")
    queue.complete("a", {"sim_time": 1e-6})
    counts = queue.counts()
    assert counts == {"queued": 1, "running": 0, "completed": 1,
                      "failed": 0, "total": 2, "retries": 0}
    assert queue.get("a").result == {"sim_time": 1e-6}
    assert not queue.done  # b still queued


def test_to_dict_carries_spec_state_and_history():
    queue = JobQueue()
    queue.submit(_spec("a", max_retries=1))
    queue.claim("w1")
    queue.fail("a", "boom")
    queue.claim("w2")
    queue.complete("a")
    (payload,) = queue.to_dict()
    assert payload["spec"]["job_id"] == "a"
    assert payload["state"] == "completed"
    assert payload["workers"] == ["w1", "w2"]
    assert payload["retries"] == 1


def test_incremental_counts_and_done_agree_with_a_full_scan():
    """``counts()`` and ``done`` are kept in step with each transition
    (the scheduler asks every turn); a scan of the jobs is the oracle.
    Claims come off a 2,000-job queue in the order a model deque says:
    first in, first out, retries ahead of everything."""
    import collections
    import random
    rng = random.Random(19)
    queue = JobQueue()
    queue.restore(_spec("r-done"), state="completed")
    queue.restore(_spec("r-failed", max_retries=0), state="failed",
                  failures=[{"error": "x"}])
    queue.restore(_spec("r-retried", max_retries=2), attempt=1,
                  failures=[{"error": "x"}])
    order = collections.deque(["r-retried"])
    running, submitted = [], 0

    def submit():
        nonlocal submitted
        submitted += 1
        queue.submit(_spec(f"j{submitted}", max_retries=rng.randrange(3)))
        order.append(f"j{submitted}")

    for _ in range(2000):
        submit()
    for step in range(400):
        move = rng.choice(("submit", "claim", "claim", "complete", "fail"))
        if move == "submit":
            submit()
        elif move == "claim":
            job = queue.claim(f"w{step % 3}")
            assert job.spec.job_id == order.popleft()
            running.append(job.spec.job_id)
        elif running:
            job_id = running.pop(rng.randrange(len(running)))
            if move == "complete":
                queue.complete(job_id)
            elif queue.fail(job_id, "boom").state == "queued":
                order.appendleft(job_id)
        jobs = queue.jobs()
        tally = collections.Counter(j.state for j in jobs)
        scan = {state: tally[state]
                for state in ("queued", "running", "completed", "failed")}
        scan["total"] = len(jobs)
        scan["retries"] = sum(j.retries for j in jobs)
        assert queue.counts() == scan
        assert len(queue._pending) == len(order) == scan["queued"]
        assert queue.done == all(j.state in ("completed", "failed")
                                 for j in jobs)
    assert scan["retries"] > 0 and scan["failed"] > 1 and not queue.done
    while (job := queue.claim("w")) is not None:
        assert job.spec.job_id == order.popleft()
    assert not order and queue.claim("w") is None
    for job in queue.jobs():
        if job.state == "running":
            queue.complete(job.spec.job_id)
    assert queue.done
