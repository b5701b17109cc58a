"""Tests for the pure cache bookkeeping structures: tags, MSHR, TLB."""

import pytest
from hypothesis import given, strategies as st

from repro.akita import BufferError_, ConfigurationError
from repro.gpu import MSHR, SetAssocTags, TLB
from repro.gpu.mem import CACHE_LINE_SIZE


# ------------------------------------------------------------------ tags
def test_tags_geometry():
    tags = SetAssocTags(16 * 1024, 4)
    assert tags.num_sets == 64
    assert tags.ways == 4


def test_tags_bad_geometry_rejected():
    with pytest.raises(ConfigurationError):
        SetAssocTags(100, 3)


def test_tags_miss_then_hit():
    tags = SetAssocTags(1024, 2)
    assert not tags.lookup(0)
    tags.fill(0)
    assert tags.lookup(0)
    assert tags.hits == 1
    assert tags.misses == 1


def test_tags_lru_eviction():
    tags = SetAssocTags(2 * CACHE_LINE_SIZE, 2)  # 1 set, 2 ways
    tags.fill(0)
    tags.fill(64)
    tags.lookup(0)            # refresh line 0
    victim = tags.fill(128)   # must evict line 64 (LRU)
    assert victim is not None
    assert victim.line_addr == 64
    assert tags.contains(0)
    assert tags.contains(128)


def test_tags_dirty_victim():
    tags = SetAssocTags(2 * CACHE_LINE_SIZE, 2)
    tags.fill(0)
    tags.mark_dirty(0)
    tags.fill(64)
    victim = tags.fill(128)
    assert victim.dirty
    assert victim.line_addr == 0 or victim.line_addr == 64


def test_tags_fill_existing_is_not_eviction():
    tags = SetAssocTags(2 * CACHE_LINE_SIZE, 2)
    tags.fill(0)
    assert tags.fill(0) is None


def test_tags_occupancy_and_hit_rate():
    tags = SetAssocTags(1024, 2)
    assert tags.occupancy == 0
    assert tags.hit_rate == 0.0
    tags.fill(0)
    tags.lookup(0)
    tags.lookup(64 * 1024)
    assert tags.occupancy == 1
    assert tags.hit_rate == 0.5


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_tags_occupancy_never_exceeds_capacity(line_indices):
    tags = SetAssocTags(4 * CACHE_LINE_SIZE, 2)  # 2 sets x 2 ways
    for i in line_indices:
        tags.fill(i * CACHE_LINE_SIZE)
        assert tags.occupancy <= 4
        for s in tags._sets:
            assert len(s) <= tags.ways


# ------------------------------------------------------------------ MSHR
def test_mshr_capacity():
    mshr = MSHR(2)
    mshr.allocate(0)
    mshr.allocate(64)
    assert mshr.full
    with pytest.raises(BufferError_):
        mshr.allocate(128)


def test_mshr_requires_positive_capacity():
    with pytest.raises(ConfigurationError):
        MSHR(0)


def test_mshr_duplicate_rejected():
    mshr = MSHR(4)
    mshr.allocate(0)
    with pytest.raises(BufferError_):
        mshr.allocate(0)


def test_mshr_coalescing_workflow():
    mshr = MSHR(4)
    entry = mshr.allocate(64)
    entry.waiting.append("req1")
    same = mshr.lookup(64)
    assert same is entry
    same.waiting.append("req2")
    released = mshr.release(64)
    assert released.waiting == ["req1", "req2"]
    assert mshr.size == 0


def test_mshr_generic_keys():
    mshr = MSHR(4)
    mshr.allocate(("w", 17))
    assert mshr.lookup(("w", 17)) is not None
    assert mshr.lookup(("w", 18)) is None


# ------------------------------------------------------------------ TLB
def test_tlb_miss_then_fill_then_hit():
    tlb = TLB(capacity=2)
    assert not tlb.lookup(0)
    tlb.fill(0)
    assert tlb.lookup(0)
    assert tlb.lookup(100)  # same page (4096 bytes)


def test_tlb_requires_positive_capacity():
    with pytest.raises(ConfigurationError):
        TLB(0)


def test_tlb_lru_eviction():
    tlb = TLB(capacity=2)
    tlb.fill(0)
    tlb.fill(4096)
    tlb.lookup(0)       # refresh page 0
    tlb.fill(8192)      # evicts page 1
    assert tlb.lookup(0)
    assert not tlb.lookup(4096)


def test_tlb_hit_rate():
    tlb = TLB(capacity=4)
    tlb.lookup(0)
    tlb.fill(0)
    tlb.lookup(0)
    assert tlb.hit_rate == 0.5
    assert tlb.size == 1
