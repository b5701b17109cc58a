"""Tests for the bottleneck analyzer and progress bars."""

import pytest

from repro.akita import Buffer, Component, Engine
from repro.core import BufferAnalyzer, Monitor, ProgressBar
from repro.gpu.kernel import KernelDescriptor, KernelState, MemCopyState


class _Box(Component):
    def __init__(self, name, engine, capacities):
        super().__init__(name, engine)
        self.bufs = [Buffer(f"{name}.B{i}", cap)
                     for i, cap in enumerate(capacities)]

    def handle(self, event):
        pass


@pytest.fixture
def analyzer_with_boxes():
    engine = Engine()
    analyzer = BufferAnalyzer()
    a = _Box("A", engine, [4])
    b = _Box("B", engine, [8])
    analyzer.register_component(a)
    analyzer.register_component(b)
    return analyzer, a, b


# -------------------------------------------------------------- analyzer
def test_register_counts_buffers(analyzer_with_boxes):
    analyzer, a, b = analyzer_with_boxes
    assert analyzer.buffer_count == 2


def test_register_is_idempotent(analyzer_with_boxes):
    analyzer, a, b = analyzer_with_boxes
    analyzer.register_component(a)      # before the first read
    assert analyzer.buffer_count == 2
    analyzer.register_component(a)      # and after it
    assert analyzer.buffer_count == 2
    assert len(analyzer.snapshot(include_empty=True)) == 2


def test_snapshot_hides_empty_by_default(analyzer_with_boxes):
    analyzer, a, b = analyzer_with_boxes
    assert analyzer.snapshot() == []
    rows = analyzer.snapshot(include_empty=True)
    assert len(rows) == 2


def test_snapshot_sort_by_percent(analyzer_with_boxes):
    analyzer, a, b = analyzer_with_boxes
    for _ in range(3):
        a.bufs[0]._items.append("x")   # 3/4 = 75%
    for _ in range(4):
        b.bufs[0]._items.append("x")   # 4/8 = 50%
    rows = analyzer.snapshot(sort="percent")
    assert rows[0].name == "A.B0"
    assert rows[0].percent == 0.75


def test_snapshot_sort_by_size(analyzer_with_boxes):
    analyzer, a, b = analyzer_with_boxes
    for _ in range(3):
        a.bufs[0]._items.append("x")
    for _ in range(4):
        b.bufs[0]._items.append("x")
    rows = analyzer.snapshot(sort="size")
    assert rows[0].name == "B.B0"
    assert rows[0].size == 4


def test_snapshot_top_truncates(analyzer_with_boxes):
    analyzer, a, b = analyzer_with_boxes
    a.bufs[0]._items.append("x")
    b.bufs[0]._items.append("x")
    assert len(analyzer.snapshot(top=1)) == 1


def test_snapshot_rejects_bad_sort(analyzer_with_boxes):
    analyzer, _, __ = analyzer_with_boxes
    with pytest.raises(ValueError):
        analyzer.snapshot(sort="alphabetical")


def test_row_to_dict(analyzer_with_boxes):
    analyzer, a, _ = analyzer_with_boxes
    a.bufs[0]._items.append("x")
    row = analyzer.snapshot()[0]
    d = row.to_dict()
    assert d == {"buffer": "A.B0", "size": 1, "capacity": 4,
                 "percent": 0.25, "pinned": False}


def test_figure4_chain_identifies_slow_component():
    """Figure 4: in a chain A->B->C->D where C is slow, only C's input
    buffer is full."""
    engine = Engine()
    analyzer = BufferAnalyzer()
    boxes = {name: _Box(name, engine, [4]) for name in "ABCD"}
    for box in boxes.values():
        analyzer.register_component(box)
    # C's buffer full; others nearly empty (B and D keep up).
    for _ in range(4):
        boxes["C"].bufs[0]._items.append("req")
    boxes["B"].bufs[0]._items.append("req")
    rows = analyzer.snapshot(sort="percent")
    assert rows[0].name == "C.B0"
    assert rows[0].percent == 1.0


# -------------------------------------------------------------- progress
def test_static_bar_updates():
    bar = ProgressBar("work", total=100)
    bar.update(40, ongoing=10)
    assert bar.counts == (40, 10, 100)
    assert bar.not_started == 50


def test_bar_to_dict():
    bar = ProgressBar("work", total=5)
    bar.update(2, 1)
    d = bar.to_dict()
    assert d["completed"] == 2
    assert d["ongoing"] == 1
    assert d["not_started"] == 2
    assert d["name"] == "work"


def test_live_kernel_bar_tracks_state():
    k = KernelDescriptor("k", 8, 1, lambda wg, wf: iter(()))
    state = KernelState(k)
    bar = ProgressBar.for_kernel(state)
    assert bar.counts == (0, 0, 8)
    state.start_wg()
    state.start_wg()
    state.finish_wg()
    assert bar.counts == (1, 1, 8)
    assert bar.name == "kernel:k"


def test_live_memcopy_bar():
    copy = MemCopyState(1000, direction="h2d")
    bar = ProgressBar.for_memcopy(copy)
    copy.copied_bytes = 250
    assert bar.counts == (250, 0, 1000)


def test_bar_ids_unique():
    """The monitor that keeps the bars numbers them, from 1, whoever
    numbered bars before it in the process."""
    for _ in range(2):
        monitor = Monitor()
        a = monitor.create_progress_bar("a")
        b = monitor.create_progress_bar("b")
        assert (a.id, b.id) == (1, 2)
