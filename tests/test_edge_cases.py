"""Edge cases and failure injection across the substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    JavaVM,
    OutOfMemoryError,
    SegmentationFault,
    TeraHeapConfig,
    VMConfig,
    gb,
)
from repro.clock import Bucket, Clock
from repro.config import CostModel
from repro.devices.mmap import BASE_PAGE, MappedFile
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.store import HeapStore
from repro.serdes.serializer import KryoSerializer
from repro.units import KiB


class TestAllocatorEdges:
    def test_allocate_exactly_heap_capacity_fails_gracefully(self):
        vm = JavaVM(VMConfig(heap_size=gb(2)))
        with pytest.raises(OutOfMemoryError) as exc:
            vm.allocate(vm.heap.capacity * 2)
        assert exc.value.requested == vm.heap.capacity * 2

    def test_temp_allocation_oom_sets_flag(self):
        vm = JavaVM(VMConfig(heap_size=gb(2)))
        keep = []
        with pytest.raises(OutOfMemoryError):
            while True:
                o = vm.allocate(64 * KiB)
                vm.roots.add(o)
                keep.append(o)
        assert vm.oom

    def test_minimum_object_size(self):
        vm = JavaVM(VMConfig(heap_size=gb(2)))
        with pytest.raises(ValueError):
            vm.allocate(8)

    def test_allocation_after_oom_recovers_if_space_freed(self):
        vm = JavaVM(VMConfig(heap_size=gb(2)))
        keep = []
        with pytest.raises(OutOfMemoryError):
            while True:
                o = vm.allocate(64 * KiB)
                vm.roots.add(o)
                keep.append(o)
        for o in keep:
            vm.roots.remove(o)
        vm.major_gc()
        obj = vm.allocate(64 * KiB)  # succeeds again
        assert obj.space is not SpaceId.FREED


class TestH2Edges:
    def make_vm(self, h2_gb=1):
        return JavaVM(
            VMConfig(
                heap_size=gb(4),
                teraheap=TeraHeapConfig(
                    enabled=True, h2_size=gb(h2_gb), region_size=16 * KiB
                ),
                page_cache_size=gb(1),
            )
        )

    def test_h2_exhaustion_propagates_as_oom(self):
        vm = self.make_vm(h2_gb=1)  # 64 regions only
        with pytest.raises(OutOfMemoryError):
            for i in range(200):
                o = vm.allocate(12 * KiB)
                vm.roots.add(o)
                vm.h2_tag_root(o, f"g{i}")
                vm.h2_move(f"g{i}")
                vm.major_gc()

    def test_double_tag_same_label_is_idempotent(self):
        vm = self.make_vm(h2_gb=16)
        o = vm.allocate(1024)
        vm.roots.add(o)
        vm.h2_tag_root(o, "x")
        vm.h2_tag_root(o, "x")
        vm.h2_move("x")
        vm.major_gc()
        assert o.space is SpaceId.H2

    def test_move_without_tag_is_noop(self):
        vm = self.make_vm(h2_gb=16)
        o = vm.allocate(1024)
        vm.roots.add(o)
        vm.h2_move("never-tagged")
        vm.major_gc()
        assert o.space is SpaceId.OLD

    def test_retag_after_reclaim(self):
        """A label whose group died can be reused for a new group."""
        vm = self.make_vm(h2_gb=16)
        a = vm.allocate(1024, name="a")
        vm.roots.add(a)
        vm.h2_tag_root(a, "label")
        vm.h2_move("label")
        vm.major_gc()
        vm.roots.remove(a)
        vm.major_gc()
        assert a.space is SpaceId.FREED
        b = vm.allocate(1024, name="b")
        vm.roots.add(b)
        vm.h2_tag_root(b, "label")
        vm.h2_move("label")
        vm.major_gc()
        assert b.space is SpaceId.H2


class TestDeviceEdges:
    def test_zero_byte_read_costs_latency_only(self):
        clock = Clock()
        dev = NVMeSSD(clock)
        cost = dev.read(0)
        assert cost >= dev.read_latency

    def test_page_cache_single_page_capacity(self):
        cache = PageCache(NVMeSSD(Clock()), capacity=4096)
        cache.access([1])
        cache.access([2])
        assert len(cache) == 1

    def test_mapping_boundary_access(self):
        clock = Clock()
        dev = NVMeSSD(clock)
        cache = PageCache(dev, 64 * BASE_PAGE)
        m = MappedFile(dev, 0x1000, 8 * BASE_PAGE, cache)
        m.load(0x1000 + 8 * BASE_PAGE - 1, 1)  # last byte: fine
        with pytest.raises(SegmentationFault):
            m.load(0x1000 + 8 * BASE_PAGE, 1)


class TestSerializerEdges:
    def test_empty_refs_single_object(self, store):
        ser = KryoSerializer(Clock(), CostModel())
        blob = ser.serialize(HeapObject(64, store=store))
        assert blob.object_count == 1

    def test_diamond_graph_counted_once(self, store):
        ser = KryoSerializer(Clock(), CostModel())
        shared = HeapObject(64, store=store)
        a = HeapObject(64, refs=[shared], store=store)
        b = HeapObject(64, refs=[shared], store=store)
        root = HeapObject(64, refs=[a, b], store=store)
        blob = ser.serialize(root)
        assert blob.object_count == 4

    @settings(max_examples=25)
    @given(sizes=st.lists(st.integers(16, 4096), min_size=1, max_size=30))
    def test_blob_bytes_equal_closure_bytes(self, sizes):
        ser = KryoSerializer(Clock(), CostModel())
        store = HeapStore()
        children = [HeapObject(s, store=store) for s in sizes[1:]]
        root = HeapObject(sizes[0], refs=children, store=store)
        blob = ser.serialize(root)
        assert blob.size_bytes == sum(sizes)


class TestClockEdges:
    def test_deeply_nested_contexts(self):
        clock = Clock()
        with clock.context(Bucket.MINOR_GC):
            with clock.context(Bucket.MAJOR_GC):
                with clock.context(Bucket.SD_IO):
                    with clock.context(Bucket.OTHER):
                        clock.charge(1.0)
        assert clock.total(Bucket.OTHER) == 1.0
        assert clock.now == 1.0

    def test_zero_charge_allowed(self):
        clock = Clock()
        clock.charge(0.0)
        assert clock.now == 0.0


class TestWriteBarrierEdges:
    def test_remove_nonexistent_ref_is_silent(self):
        vm = JavaVM(VMConfig(heap_size=gb(2)))
        a, b = vm.allocate(64), vm.allocate(64)
        vm.write_ref(a, None, remove=b)  # b was never referenced
        assert a.refs == []

    def test_null_store_only_fires_barrier(self):
        vm = JavaVM(VMConfig(heap_size=gb(2)))
        a = vm.allocate(64)
        before = vm.barrier.barrier_count
        vm.write_ref(a, None)
        assert vm.barrier.barrier_count == before + 1
        assert a.refs == []
