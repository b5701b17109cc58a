"""Tests for the historian repository layer (store + compare)."""

import json
import sqlite3

import pytest

from repro.historian import Historian, RECORD_KINDS
from repro.metrics import MetricRegistry, expose


def _exposition(**families):
    registry = MetricRegistry()
    for name, value in families.items():
        registry.gauge(name, "test family").set(float(value))
    return expose(registry)


@pytest.fixture
def store(tmp_path):
    historian = Historian(tmp_path / "historian.db")
    yield historian
    historian.close()


def test_record_query_round_trip(store):
    cid = store.begin_campaign("c1", meta={"workers": 2})
    store.record(cid, "snapshot", {"totals": {"x": 1.0}})
    store.record(cid, "job", {"state": "completed"}, name="fir-c1")
    records = store.query(cid)
    assert [r["kind"] for r in records] == ["snapshot", "job"]
    assert records[0]["payload"] == {"totals": {"x": 1.0}}
    assert records[1]["name"] == "fir-c1"
    (campaign,) = store.campaigns()
    assert campaign["campaign_id"] == "c1"
    assert campaign["meta"] == {"workers": 2}
    assert campaign["records"] == {"snapshot": 1, "job": 1}


def test_query_filters(store):
    a = store.begin_campaign("a")
    b = store.begin_campaign("b")
    store.record(a, "snapshot", {"n": 1})
    store.record(b, "snapshot", {"n": 2})
    store.record(b, "alert", {"state": "firing"}, name="rule-1")
    assert len(store.query()) == 3
    assert len(store.query(campaign_id="b")) == 2
    assert len(store.query(kind="alert")) == 1
    assert store.query(campaign_id="b", kind="snapshot")[0][
        "payload"] == {"n": 2}
    assert store.query(name="rule-1")[0]["kind"] == "alert"


def test_end_campaign_sets_finished(store):
    cid = store.begin_campaign("done")
    store.end_campaign(cid)
    (campaign,) = store.campaigns()
    assert campaign["finished_wall"] is not None


def test_jobs_latest_record_wins(store):
    cid = store.begin_campaign("c")
    store.record(cid, "job", {"state": "failed"}, name="j1")
    store.record(cid, "job", {"state": "completed"}, name="j1")
    (job,) = store.jobs(cid)
    assert job["payload"]["state"] == "completed"


def test_batched_writes_flush_on_query(tmp_path):
    historian = Historian(tmp_path / "h.db", flush_interval=1000.0)
    cid = historian.begin_campaign("c")
    for i in range(10):
        historian.record(cid, "snapshot", {"i": i})
    # Nothing flushed yet — but a query must see its own writes.
    assert len(historian.query(cid)) == 10
    historian.close()


def test_unknown_kind_rejected(store):
    cid = store.begin_campaign("c")
    with pytest.raises(ValueError):
        store.record(cid, "banana", {})
    assert set(RECORD_KINDS) == {"snapshot", "job", "postmortem",
                                 "alert", "profile"}


def test_compare_names_every_job_and_diffs_families(store):
    a = store.begin_campaign("base")
    b = store.begin_campaign("cand")
    store.record(a, "job",
                 {"state": "completed", "retries": 0,
                  "metrics_text": _exposition(rtm_x=10, rtm_old=1)},
                 name="fir-c1")
    store.record(a, "job",
                 {"state": "completed", "retries": 0,
                  "metrics_text": _exposition(rtm_x=20)},
                 name="fir-c2")
    store.record(b, "job",
                 {"state": "failed", "retries": 1,
                  "metrics_text": _exposition(rtm_x=45, rtm_new=7)},
                 name="fir-c1")
    report = store.compare("base", "cand")
    assert [j["job_id"] for j in report["a"]["jobs"]] == ["fir-c1",
                                                          "fir-c2"]
    assert [j["job_id"] for j in report["b"]["jobs"]] == ["fir-c1"]
    assert report["b"]["jobs"][0]["state"] == "failed"
    family = report["families"]["rtm_x"]
    assert family["a"] == 30.0 and family["b"] == 45.0
    assert family["delta"] == 15.0
    assert family["ratio"] == pytest.approx(1.5)
    assert report["only_a"] == ["rtm_old"]
    assert report["only_b"] == ["rtm_new"]


def test_compare_tolerates_missing_exposition(store):
    a = store.begin_campaign("a")
    b = store.begin_campaign("b")
    store.record(a, "job", {"state": "completed",
                            "metrics_text": None}, name="j")
    report = store.compare("a", "b")
    assert report["a"]["jobs"][0]["job_id"] == "j"
    assert report["families"] == {}


def test_rows_survive_process_reopen(tmp_path):
    path = tmp_path / "h.db"
    historian = Historian(path)
    cid = historian.begin_campaign("c")
    historian.record(cid, "postmortem", {"verdict": "aborted"},
                     name="j1")
    historian.close()
    reopened = Historian(path)
    (record,) = reopened.postmortems("c")
    assert record["payload"]["verdict"] == "aborted"
    reopened.close()


def test_crc_stored_per_row(tmp_path):
    path = tmp_path / "h.db"
    historian = Historian(path)
    cid = historian.begin_campaign("c")
    historian.record(cid, "snapshot", {"n": 1})
    historian.flush()
    historian.close()
    conn = sqlite3.connect(path)
    ((payload, crc),) = conn.execute(
        "SELECT payload, crc FROM records").fetchall()
    conn.close()
    import zlib
    assert crc == (zlib.crc32(payload.encode()) & 0xFFFFFFFF)
    assert json.loads(payload) == {"n": 1}
