"""Retention sweeps delete exactly the out-of-policy rows."""

import pytest

from repro.historian import Historian, RetentionPolicy


@pytest.fixture
def store(tmp_path):
    historian = Historian(tmp_path / "historian.db")
    yield historian
    historian.close()


def _ids(store, kind=None):
    return [r["payload"]["i"]
            for r in store.query(kind=kind, limit=0)]


def test_age_policy_prunes_only_stale_rows(store):
    cid = store.begin_campaign("c")
    for i in range(6):
        store.record(cid, "snapshot", {"i": i}, wall=float(i))
    # Keep the last 2 seconds as of now=5: rows with wall < 3 go.
    deleted = store.prune([RetentionPolicy("snapshot", max_age=2.0)],
                          now=5.0)
    assert deleted == {"snapshot": 3}
    assert _ids(store, "snapshot") == [3, 4, 5]


def test_count_policy_keeps_newest_n(store):
    cid = store.begin_campaign("c")
    for i in range(10):
        store.record(cid, "snapshot", {"i": i}, wall=float(i))
    deleted = store.prune([RetentionPolicy("snapshot", max_count=4)])
    assert deleted == {"snapshot": 6}
    assert _ids(store, "snapshot") == [6, 7, 8, 9]


def test_other_kinds_untouched(store):
    cid = store.begin_campaign("c")
    for i in range(5):
        store.record(cid, "snapshot", {"i": i}, wall=float(i))
    store.record(cid, "job", {"i": 100, "state": "completed"},
                 name="j1", wall=0.0)
    store.record(cid, "postmortem", {"i": 200}, name="j1", wall=0.0)
    store.record(cid, "alert", {"i": 300}, wall=0.0)
    deleted = store.prune([RetentionPolicy("snapshot", max_age=1.0,
                                           max_count=1)], now=10.0)
    assert deleted == {"snapshot": 5}
    # Jobs, post-mortems and alerts at wall=0 survive: no policy named
    # them, even though they are far older than the snapshot window.
    assert _ids(store, "job") == [100]
    assert _ids(store, "postmortem") == [200]
    assert _ids(store, "alert") == [300]


def test_combined_age_and_count_policy(store):
    cid = store.begin_campaign("c")
    for i in range(8):
        store.record(cid, "alert", {"i": i}, wall=float(i))
    # Age drops 0..3 (wall < 4); count then trims survivors to 3.
    deleted = store.prune([RetentionPolicy("alert", max_age=4.0,
                                           max_count=3)], now=8.0)
    assert deleted == {"alert": 5}
    assert _ids(store, "alert") == [5, 6, 7]


def test_in_policy_rows_never_deleted(store):
    cid = store.begin_campaign("c")
    for i in range(3):
        store.record(cid, "snapshot", {"i": i}, wall=float(i))
    deleted = store.prune(
        [RetentionPolicy("snapshot", max_age=100.0, max_count=100)],
        now=3.0)
    assert deleted == {}
    assert _ids(store, "snapshot") == [0, 1, 2]


def test_policy_validates_kind():
    with pytest.raises(ValueError):
        RetentionPolicy("banana", max_age=1.0)


def test_prune_flushes_pending_first(tmp_path):
    historian = Historian(tmp_path / "h.db", flush_interval=1000.0)
    cid = historian.begin_campaign("c")
    for i in range(4):
        historian.record(cid, "snapshot", {"i": i}, wall=float(i))
    deleted = historian.prune([RetentionPolicy("snapshot",
                                               max_count=1)])
    assert deleted == {"snapshot": 3}
    assert _ids(historian, "snapshot") == [3]
    historian.close()
