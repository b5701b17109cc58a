"""Acceptance e2e: two campaigns, one historian database.

Campaign A runs through the real CLI (``fleet run --historian``);
campaign B runs programmatically with an induced stall fault and a
threshold alert rule over a federated family.  The one database must
then answer: which jobs did each campaign run (``/api/historian/
compare`` names every one), what did the watchdog conclude about the
stall (post-mortem by campaign id), and the rule must have fired
exactly once into the SSE stream and resolved.
"""

import threading
import time

import pytest

from repro import cli
from repro.core import RTMClient
from repro.fleet import FleetGateway, FleetManager, JobQueue, JobSpec
from repro.historian import Historian, HistorianService, MetricRule

_STALL_FAULT = {"kind": "stall", "target": "*WriteBuffer*",
                "start": 5e-7}

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def two_campaigns(tmp_path_factory):
    db = tmp_path_factory.mktemp("historian") / "historian.db"

    # -- campaign A: the stock CLI path --------------------------------
    code = cli.main(["fleet", "run", "--workers", "2",
                     "--workloads", "fir", "--chiplets", "1,2",
                     "--timeout", "300",
                     "--historian", str(db),
                     "--campaign", "camp-a"])
    assert code == 0

    # -- campaign B: induced stall + alert rule + SSE witness ----------
    specs = [JobSpec("fir-c1", "fir", chiplets=1, max_retries=1),
             JobSpec("fir-c2", "fir", chiplets=2, max_retries=1),
             JobSpec("kmeans-c1", "kmeans", chiplets=1, max_retries=1)]
    specs[0].fault = dict(_STALL_FAULT)  # watchdog aborts attempt 0

    queue = JobQueue()
    queue.submit_all(specs)
    manager = FleetManager(queue, num_workers=2)
    gateway = FleetGateway(manager)
    historian = Historian(db)
    # interval=60: the sampler thread stays quiet and the test drives
    # tick() itself, so "fires exactly once" is deterministic.
    service = HistorianService(historian, campaign_id="camp-b",
                               manager=manager, interval=60.0)
    rule = service.add_rule(MetricRule(
        "rtm_fleet_workers_live", op=">=", threshold=1))
    service.bind_gateway(gateway)
    gateway.start()

    client = RTMClient(gateway.url)
    events = []
    stream_done = threading.Event()

    def consume():
        try:
            for event in client.historian_stream(interval=0.1,
                                                 max_events=2,
                                                 since=0):
                events.append(event)
        finally:
            stream_done.set()

    witness = threading.Thread(target=consume, daemon=True)
    witness.start()

    manager.start()
    try:
        # Tick until the workers-live rule fires.  Extra ticks while
        # still breaching must stay silent (the dedup under test).
        deadline = time.monotonic() + 60.0
        while rule.state != "firing":
            assert time.monotonic() < deadline, "rule never fired"
            service.tick()
            time.sleep(0.1)
        service.tick()
        service.tick()

        assert manager.wait(timeout=300.0), manager.status()
    finally:
        manager.stop()

    # Workers are down: the next evaluation resolves the rule.
    service.tick()
    assert rule.state == "ok"
    assert stream_done.wait(timeout=10.0), "SSE stream never closed"

    compare = client.historian_compare("camp-a", "camp-b")
    postmortems = client.historian_query(campaign="camp-b",
                                         kind="postmortem")
    alerts = client.historian_alerts()
    campaigns = client.historian_campaigns()
    status = client.historian_status()

    service.stop()
    gateway.stop()
    historian.close()
    return {"db": db, "events": events, "compare": compare,
            "postmortems": postmortems, "alerts": alerts,
            "campaigns": campaigns, "status": status,
            "queue_counts": queue.counts()}


def test_campaign_b_drained(two_campaigns):
    counts = two_campaigns["queue_counts"]
    assert counts["completed"] == 3
    assert counts["failed"] == 0


def test_compare_names_every_job_from_both_campaigns(two_campaigns):
    compare = two_campaigns["compare"]
    assert compare["a"]["campaign_id"] == "camp-a"
    jobs_a = {j["job_id"] for j in compare["a"]["jobs"]}
    jobs_b = {j["job_id"] for j in compare["b"]["jobs"]}
    assert jobs_a == {"fir-c1", "fir-c2"}
    assert jobs_b == {"fir-c1", "fir-c2", "kmeans-c1"}
    # Every job completed on both sides, and B's sabotaged job shows
    # its retry.
    for job in compare["a"]["jobs"] + compare["b"]["jobs"]:
        assert job["state"] == "completed"
    (sabotaged,) = [j for j in compare["b"]["jobs"]
                    if j["job_id"] == "fir-c1"]
    assert sabotaged["retries"] >= 1
    # Shared engine families diff with finite deltas.
    shared = [name for name, entry in compare["families"].items()
              if entry.get("a") is not None
              and entry.get("b") is not None]
    assert any(name.startswith("rtm_engine") for name in shared)


def test_stall_postmortem_retrievable_by_campaign_id(two_campaigns):
    postmortems = two_campaigns["postmortems"]
    assert postmortems, "no post-mortem records for camp-b"
    named = [p for p in postmortems if p["name"] == "fir-c1"]
    assert named, "stalled job has no post-mortem"
    reports = [p["payload"] for p in named]
    watchdogs = [r.get("watchdog") for r in reports
                 if r.get("watchdog")]
    assert watchdogs, f"no watchdog verdict in {reports}"
    report = watchdogs[0].get("report") or watchdogs[0]
    assert report.get("verdict")


def test_rule_fired_exactly_once_into_sse_and_resolved(two_campaigns):
    events = two_campaigns["events"]
    assert [e["state"] for e in events] == ["firing", "resolved"]
    assert events[0]["name"] == "rtm_fleet_workers_live >= 1"
    assert events[0]["seq"] < events[1]["seq"]
    # The store agrees: exactly one firing and one resolved alert
    # record landed for camp-b.
    historian = Historian(two_campaigns["db"])
    alerts = historian.alerts("camp-b")
    degraded = historian.stats()["degraded"]
    historian.close()
    assert not degraded
    states = [a["payload"]["state"] for a in alerts]
    assert states == ["firing", "resolved"]


def test_both_campaigns_listed_with_records(two_campaigns):
    by_id = {c["campaign_id"]: c
             for c in two_campaigns["campaigns"]}
    assert {"camp-a", "camp-b"} <= set(by_id)
    for campaign_id in ("camp-a", "camp-b"):
        records = by_id[campaign_id]["records"]
        assert records.get("snapshot", 0) >= 1
        assert records.get("job", 0) >= 2
    assert by_id["camp-a"]["finished_wall"] is not None
    status = two_campaigns["status"]
    assert status["campaign_id"] == "camp-b"
    assert status["jobs_recorded"] == 3
