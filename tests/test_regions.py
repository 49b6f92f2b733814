"""H2 regions: placement, metadata, liveness stats, bulk reclamation."""

import pytest

from repro.heap.object_model import HeapObject
from repro.teraheap.regions import (
    PER_REGION_METADATA_BYTES,
    Region,
    metadata_bytes_per_tb,
)
from repro.units import MiB


@pytest.fixture
def region(store):
    return Region(store, index=0, base=0x1000, capacity=16 * 1024)


def test_append_only_allocation(region, store):
    a, b = HeapObject(1000, store=store), HeapObject(2000, store=store)
    assert region.allocate(a.oid) and region.allocate(b.oid)
    assert a.address == 0x1000
    assert b.address == 0x1000 + 1000
    assert region.used == 3000
    assert region.oid_array().tolist() == [a.oid, b.oid]


def test_objects_never_span_regions(region, store):
    big = HeapObject(region.capacity + 16, store=store)
    assert not region.allocate(big.oid)


def test_allocation_fails_when_full(region, store):
    assert region.allocate(HeapObject(16 * 1024, store=store).oid)
    assert not region.allocate(HeapObject(64, store=store).oid)


def test_liveness_stats(region, store):
    live, dead = HeapObject(1000, store=store), HeapObject(3000, store=store)
    region.allocate(live.oid)
    region.allocate(dead.oid)
    live.mark_epoch = 7
    stats = region.live_object_stats(mark_epoch=7)
    assert stats.total_objects == 2
    assert stats.live_objects == 1
    assert stats.live_object_fraction == pytest.approx(0.5)
    assert stats.live_bytes == 1000
    assert stats.live_space_fraction == pytest.approx(1000 / region.capacity)
    assert stats.unused_fraction == pytest.approx(
        1 - 4000 / region.capacity
    )


def test_metadata_matches_paper_table5():
    # Paper Table 5: 1 MB regions -> 417 MB/TB ... halving each doubling.
    assert metadata_bytes_per_tb(1 * MiB) == pytest.approx(
        417 * MiB, rel=0.01
    )
    assert metadata_bytes_per_tb(2 * MiB) == pytest.approx(
        metadata_bytes_per_tb(1 * MiB) / 2
    )
    assert metadata_bytes_per_tb(256 * MiB) < 2.1 * MiB


def test_metadata_rejects_bad_region_size():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        metadata_bytes_per_tb(0)


def test_per_region_constant():
    assert PER_REGION_METADATA_BYTES == 417
