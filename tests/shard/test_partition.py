"""Partition math: every chiplet on exactly one shard, names route."""

import pytest

from repro.akita.errors import ConfigurationError
from repro.shard import chiplet_owners, owner_of_name


def _blocks(owners, num_shards):
    """Shard → its chiplets, in chiplet order."""
    return [[c for c in sorted(owners) if owners[c] == shard]
            for shard in range(num_shards)]


@pytest.mark.parametrize("num_chiplets", [1, 2, 3, 4, 5, 8])
def test_every_chiplet_assigned_exactly_once(num_chiplets):
    for num_shards in range(1, num_chiplets + 1):
        owners = chiplet_owners(num_chiplets, num_shards)
        assert sorted(owners) == list(range(num_chiplets))
        assert set(owners.values()) == set(range(num_shards)), (
            num_shards, owners)


def test_uneven_split_sizes_differ_by_at_most_one():
    blocks = _blocks(chiplet_owners(5, 3), 3)
    sizes = [len(b) for b in blocks]
    assert sum(sizes) == 5
    assert max(sizes) - min(sizes) <= 1
    # Contiguous blocks, in order: chiplet c's block start never
    # precedes chiplet c-1's.
    assert blocks == [[0, 1], [2, 3], [4]]


def test_one_shard_is_the_degenerate_monolithic_case():
    owners = chiplet_owners(4, 1)
    assert _blocks(owners, 1) == [[0, 1, 2, 3]]
    assert set(owners.values()) == {0}


@pytest.mark.parametrize("bad", [0, -1, 5])
def test_bad_shard_counts_raise(bad):
    with pytest.raises(ConfigurationError):
        chiplet_owners(4, bad)


def test_owner_of_name_routes_by_root_segment():
    owners = chiplet_owners(4, 2)
    assert owners == {0: 0, 1: 0, 2: 1, 3: 1}
    assert owner_of_name("GPU[0].SA[1].CU[2].ToL1", owners) == 0
    assert owner_of_name("GPU[3].RDMA.NetPort", owners) == 1
    # Host side belongs to the hub shard.
    assert owner_of_name("Driver.ToGPU", owners) == 0
    assert owner_of_name("InterChipletSwitch.Port2", owners) == 0
