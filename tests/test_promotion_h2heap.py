"""Promotion buffers and the H2 heap allocator."""

import pytest

from repro.clock import Clock
from repro.config import TeraHeapConfig
from repro.devices.mmap import MappedFile
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.errors import OutOfMemoryError
from repro.heap.object_model import HeapObject, SpaceId
from repro.teraheap.h2_heap import H2_BASE, H2Heap
from repro.teraheap.promotion import DIRECT_WRITE_THRESHOLD, PromotionManager
from repro.units import KiB, gb


@pytest.fixture
def h2(store):
    clock = Clock()
    device = NVMeSSD(clock)
    config = TeraHeapConfig(
        enabled=True, h2_size=gb(16), region_size=16 * KiB
    )
    return H2Heap(config, device, clock, page_cache_size=gb(2), store=store)


class TestPromotion:
    def make_manager(self):
        clock = Clock()
        dev = NVMeSSD(clock)
        cache = PageCache(dev, 64 * 4096)
        mapping = MappedFile(dev, H2_BASE, 1 << 24, cache)
        return PromotionManager(mapping, buffer_capacity=64 * KiB), dev

    def place(self, store, size, addr):
        o = HeapObject(size, store=store)
        o.address = addr
        o.region_id = 0
        return o

    def test_small_objects_buffered(self, store):
        mgr, dev = self.make_manager()
        mgr.write_object(self.place(store, 4 * KiB, H2_BASE), 0)
        assert dev.traffic.bytes_written == 0  # still staged
        mgr.flush_all()
        assert dev.traffic.bytes_written > 0
        assert mgr.objects_written == 1

    def test_buffer_overflow_flushes(self, store):
        mgr, dev = self.make_manager()
        for i in range(20):  # 20 * 4K > 64K buffer
            mgr.write_object(self.place(store, 4 * KiB, H2_BASE + i * 4 * KiB), 0)
        assert dev.traffic.bytes_written > 0

    def test_large_objects_bypass_buffer(self, store):
        mgr, dev = self.make_manager()
        mgr.write_object(
            self.place(store, DIRECT_WRITE_THRESHOLD, H2_BASE), 0
        )
        assert mgr.direct_writes == 1
        assert dev.traffic.bytes_written >= DIRECT_WRITE_THRESHOLD

    def test_flush_all_coalesces_shared_pages(self, store):
        mgr, dev = self.make_manager()
        # Two regions' objects on the same 4 KiB page.
        mgr.write_object(self.place(store, 1 * KiB, H2_BASE), 0)
        mgr.write_object(self.place(store, 1 * KiB, H2_BASE + 1 * KiB), 1)
        mgr.flush_all()
        assert dev.traffic.bytes_written == 4 * KiB

    def test_batching_beats_per_object_writes(self, store):
        mgr, dev = self.make_manager()
        clock2 = Clock()
        dev2 = NVMeSSD(clock2)
        for i in range(8):
            mgr.write_object(self.place(store, 1 * KiB, H2_BASE + i * KiB), 0)
            dev2.write(1 * KiB)  # unbatched alternative
        mgr.flush_all()
        assert mgr.mapping.device.clock.now < clock2.now


class TestH2Heap:
    def test_assign_address_groups_by_label(self, h2, store):
        a = h2.assign_address(HeapObject(1024, store=store), "rdd-1", epoch=1)
        b = h2.assign_address(HeapObject(1024, store=store), "rdd-1", epoch=1)
        c = h2.assign_address(HeapObject(1024, store=store), "rdd-2", epoch=1)
        assert a.index == b.index
        assert c.index != a.index
        assert a.label == "rdd-1"

    def test_region_overflow_opens_new_region(self, h2, store):
        first = h2.assign_address(HeapObject(12 * KiB, store=store), "x", 1)
        second = h2.assign_address(HeapObject(12 * KiB, store=store), "x", 1)
        assert first.index != second.index

    def test_object_larger_than_region_rejected(self, h2, store):
        with pytest.raises(OutOfMemoryError):
            h2.assign_address(HeapObject(64 * KiB, store=store), "x", 1)

    def test_region_at(self, h2, store):
        region = h2.assign_address(HeapObject(1024, store=store), "x", 1)
        obj_region = h2.region_at(region.base + 100)
        assert obj_region is region

    def test_cross_region_deps_directional(self, h2, store):
        h2.assign_address(HeapObject(1024, store=store), "a", 1)
        h2.assign_address(HeapObject(1024, store=store), "b", 1)
        h2.record_cross_region_ref(0, 1)
        assert 1 in h2.regions[0].deps
        assert 0 not in h2.regions[1].deps

    def test_self_reference_ignored(self, h2, store):
        h2.assign_address(HeapObject(1024, store=store), "a", 1)
        h2.record_cross_region_ref(0, 0)
        assert h2.regions[0].deps == set()

    def test_live_bit_propagates_through_deps(self, h2, store):
        for label in ("a", "b", "c"):
            h2.assign_address(HeapObject(1024, store=store), label, 1)
        h2.record_cross_region_ref(0, 1)
        h2.record_cross_region_ref(1, 2)
        h2.reset_live_bits()
        h2.mark_region_live(0)
        assert h2.regions[0].live
        assert h2.regions[1].live  # reachable from region 0
        assert h2.regions[2].live

    def test_directionality_allows_reclaiming_upstream(self, h2, store):
        """X->Y->Z with only Z referenced: X and Y reclaimable (the win
        over region groups, Section 3.3)."""
        objs = [HeapObject(1024, store=store) for _ in range(3)]
        for obj, label in zip(objs, ("x", "y", "z")):
            h2.assign_address(obj, label, 1)
        h2.record_cross_region_ref(0, 1)
        h2.record_cross_region_ref(1, 2)
        h2.reset_live_bits()
        h2.mark_region_live(2)  # only Z referenced from H1
        reclaimed = h2.reclaim_dead_regions(epoch=2)
        assert reclaimed == 2
        assert not h2.regions[2].is_empty
        # Bulk free: pointer zeroed, dependency list and label dropped,
        # the objects freed.
        for index in (0, 1):
            region = h2.regions[index]
            assert region.is_empty and region.deps == set()
            assert not region.live and region.label is None
        assert [o.space for o in objs] == [
            SpaceId.FREED, SpaceId.FREED, SpaceId.H2,
        ]
        assert [o.region_id for o in objs] == [-1, -1, 2]

    def test_group_policy_keeps_whole_group(self, store):
        clock = Clock()
        config = TeraHeapConfig(
            enabled=True,
            h2_size=gb(16),
            region_size=16 * KiB,
            region_policy="groups",
        )
        h2 = H2Heap(
            config, NVMeSSD(clock), clock, page_cache_size=gb(2), store=store
        )
        for label in ("x", "y", "z"):
            h2.assign_address(HeapObject(1024, store=store), label, 1)
        h2.record_cross_region_ref(0, 1)
        h2.record_cross_region_ref(1, 2)
        h2.reset_live_bits()
        h2.mark_region_live(2)
        reclaimed = h2.reclaim_dead_regions(epoch=2)
        assert reclaimed == 0  # the whole group stays alive

    def test_reclaim_reuses_region_indices(self, h2, store):
        region = h2.assign_address(HeapObject(1024, store=store), "a", 1)
        h2.reset_live_bits()
        h2.reclaim_dead_regions(epoch=2)
        again = h2.assign_address(HeapObject(1024, store=store), "b", 3)
        assert again.index == region.index

    def test_reclaim_clears_card_state(self, h2, store):
        region = h2.assign_address(HeapObject(1024, store=store), "a", 1)
        h2.card_table.mark_dirty(region.base)
        h2.reset_live_bits()
        h2.reclaim_dead_regions(epoch=2)
        assert h2.card_table.cards_to_scan(major=True) == []

    def test_metadata_grows_with_regions(self, h2, store):
        assert h2.metadata_bytes == 0
        h2.assign_address(HeapObject(1024, store=store), "a", 1)
        assert h2.metadata_bytes == 417

    def test_liveness_log_records_reclaimed(self, h2, store):
        h2.assign_address(HeapObject(1024, store=store), "a", 1)
        h2.reset_live_bits()
        h2.reclaim_dead_regions(epoch=2)
        assert len(h2.liveness_log) == 1
        assert h2.liveness_log[0].live_objects == 0

    def test_h2_exhaustion_raises(self, store):
        clock = Clock()
        config = TeraHeapConfig(
            enabled=True, h2_size=32 * KiB, region_size=16 * KiB
        )
        h2 = H2Heap(
            config, NVMeSSD(clock), clock, page_cache_size=gb(1), store=store
        )
        h2.assign_address(HeapObject(12 * KiB, store=store), "a", 1)
        h2.assign_address(HeapObject(12 * KiB, store=store), "b", 1)
        with pytest.raises(OutOfMemoryError):
            h2.assign_address(HeapObject(12 * KiB, store=store), "c", 1)

    def test_mutator_load_charges_clock(self, h2, store):
        obj = HeapObject(4096, store=store)
        h2.assign_address(obj, "a", 1)
        before = h2.clock.now
        h2.mutator_load(obj)
        assert h2.clock.now > before

    def test_mutator_store_is_rmw(self, h2, store):
        obj = HeapObject(4096, store=store)
        h2.assign_address(obj, "a", 1)
        h2.mutator_store(obj)
        assert h2.device.traffic.bytes_read > 0  # page faulted in
