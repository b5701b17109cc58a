"""Unit tests for the ring and SQLite trace stores."""

import pytest

from repro.trace import RingStore, SQLiteStore, TraceEvent, TraceKind


def _event(i, kind=TraceKind.SEND, component="GPU[0].CU[0]", msg_id=None,
           what="MemPort"):
    return TraceEvent(i * 1e-9, kind, component, what,
                      msg_id if msg_id is not None else i, "ReadReq",
                      "a", "b")


def _fill(store, n=10, **kw):
    return [store.append(_event(i, **kw)) for i in range(n)]


@pytest.fixture(params=["ring", "sqlite"])
def store(request, tmp_path):
    if request.param == "ring":
        yield RingStore(capacity=1000)
    else:
        s = SQLiteStore(str(tmp_path / "trace.db"), batch_size=4)
        yield s
        s.close()


# ----------------------------------------------------------------------
# Shared contract
# ----------------------------------------------------------------------
def test_append_assigns_monotonic_seq(store):
    events = _fill(store, 5)
    assert [ev.seq for ev in events] == [0, 1, 2, 3, 4]
    assert store.recorded == 5
    assert len(store) == 5


def test_query_returns_events_oldest_first(store):
    _fill(store, 5)
    events = store.query()
    assert [ev.seq for ev in events] == [0, 1, 2, 3, 4]
    assert events[0].time == 0.0 and events[4].time == 4e-9


def test_query_filters_by_kind(store):
    for i in range(6):
        kind = TraceKind.SEND if i % 2 == 0 else TraceKind.DELIVER
        store.append(_event(i, kind=kind))
    sends = store.query(kind=TraceKind.SEND)
    assert len(sends) == 3
    assert all(ev.kind == TraceKind.SEND for ev in sends)
    both = store.query(kind=[TraceKind.SEND, TraceKind.DELIVER])
    assert len(both) == 6


def test_query_filters_by_msg_id(store):
    _fill(store, 5)
    events = store.query(msg_id=3)
    assert len(events) == 1 and events[0].msg_id == 3


def test_query_filters_by_time_window(store):
    _fill(store, 10)  # times 0 .. 9 ns
    events = store.query(t0=2e-9, t1=5e-9)
    assert [ev.seq for ev in events] == [2, 3, 4, 5]


def test_query_filters_by_component_regex(store):
    store.append(_event(0, component="GPU[0].CU[3]"))
    store.append(_event(1, component="GPU[1].RDMA"))
    store.append(_event(2, component="GPU[0].L2[1]"))
    events = store.query(component=r"GPU\[0\]")
    assert len(events) == 2
    assert store.query(component="RDMA")[0].component == "GPU[1].RDMA"


def test_query_component_regex_also_matches_what(store):
    store.append(_event(0, what="NetPort"))
    store.append(_event(1, what="TopPort"))
    assert len(store.query(component="NetPort")) == 1


def test_query_limit_keeps_most_recent(store):
    _fill(store, 10)
    events = store.query(limit=3)
    assert [ev.seq for ev in events] == [7, 8, 9]
    assert len(store.query(limit=0)) == 10  # 0 = unlimited


def test_tail(store):
    _fill(store, 10)
    assert [ev.seq for ev in store.tail(2)] == [8, 9]


def test_clear(store):
    _fill(store, 5)
    store.clear()
    assert len(store) == 0
    assert store.query() == []


def test_stats_shared_keys(store):
    _fill(store, 3)
    stats = store.stats()
    assert stats["recorded"] == 3
    assert stats["events"] == 3
    assert stats["backend"] in ("ring", "sqlite")
    assert "dropped" in stats


def test_events_round_trip_exactly(store):
    original = TraceEvent(2.5e-9, TraceKind.DELIVER, "GPU[0].L2[1]",
                          "TopPort", 99, "WriteReq",
                          "GPU[0].WB[1].Out", "GPU[0].L2[1].TopPort",
                          "4/8 re:42")
    store.append(original)
    store.append(TraceEvent(3e-9, TraceKind.TASK_BEGIN, "GPU[0].CU[0]",
                            "wg[0]x4wf", None, "workgroup",
                            extra="(0, 0)"))
    events = store.query()
    assert events[0] == original
    assert events[1].msg_id is None
    assert events[1].extra == "(0, 0)"


# ----------------------------------------------------------------------
# Ring specifics
# ----------------------------------------------------------------------
def test_ring_bounds_and_counts_dropped():
    store = RingStore(capacity=4)
    _fill(store, 10)
    assert len(store) == 4
    assert store.dropped == 6
    assert [ev.seq for ev in store.query()] == [6, 7, 8, 9]
    assert store.stats()["capacity"] == 4


def test_ring_rejects_non_positive_capacity():
    with pytest.raises(ValueError, match="capacity"):
        RingStore(capacity=0)


# ----------------------------------------------------------------------
# SQLite specifics
# ----------------------------------------------------------------------
def test_sqlite_flushes_in_batches(tmp_path):
    store = SQLiteStore(str(tmp_path / "t.db"), batch_size=100,
                        flush_interval=3600.0)
    _fill(store, 5)
    assert store._pending  # below batch size, still buffered
    assert len(store) == 5  # __len__ counts pending too
    store.flush()
    assert not store._pending
    store.close()


def test_sqlite_persists_and_resumes_seq(tmp_path):
    path = str(tmp_path / "t.db")
    store = SQLiteStore(path)
    _fill(store, 5)
    store.close()

    reopened = SQLiteStore(path)
    assert len(reopened) == 5
    ev = reopened.append(_event(6))
    assert ev.seq == 5  # numbering resumes after the stored maximum
    reopened.close()


def test_sqlite_keeps_a_row_when_a_reader_flushes_mid_append(
        tmp_path, monkeypatch):
    """A server thread's query()/flush() can land while the simulation
    thread is still formatting the row it is about to buffer; the row
    must go into the batch that is written next, not the one just
    written out."""
    store = SQLiteStore(str(tmp_path / "t.db"), batch_size=1000,
                        flush_interval=3600.0)
    to_row = TraceEvent.to_row

    def to_row_with_a_flush_landing_inside(event):
        store.flush()
        return to_row(event)

    monkeypatch.setattr(TraceEvent, "to_row",
                        to_row_with_a_flush_landing_inside)
    _fill(store, 2)
    monkeypatch.undo()
    assert store.recorded == 2
    assert [ev.seq for ev in store.query(limit=0)] == [0, 1]
    store.close()


def test_sqlite_query_flushes_pending(tmp_path):
    store = SQLiteStore(str(tmp_path / "t.db"), batch_size=1000,
                        flush_interval=3600.0)
    _fill(store, 3)
    assert len(store.query()) == 3  # visible despite no explicit flush
    store.close()
