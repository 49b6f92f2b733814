"""JavaVM facade: allocation, GC escalation, OOM, access, barriers."""

import pytest

from repro import (
    JavaVM,
    OutOfMemoryError,
    SegmentationFault,
    TeraHeapConfig,
    VMConfig,
    gb,
)
from repro.clock import Bucket
from repro.heap.object_model import SpaceId
from repro.units import KiB


@pytest.fixture
def vm():
    return JavaVM(VMConfig(heap_size=gb(4)))


def test_allocate_returns_placed_object(vm):
    o = vm.allocate(1024, name="x")
    assert o.space is SpaceId.EDEN
    assert o.address >= 0


def test_allocate_charges_cost(vm):
    vm.allocate(1024)
    assert vm.clock.total(Bucket.OTHER) > 0


def test_allocation_survives_eden_exhaustion(vm):
    keep = vm.allocate(1024)
    vm.roots.add(keep)
    for _ in range(3 * vm.heap.eden.capacity // (64 * KiB)):
        vm.allocate(64 * KiB)
    assert vm.collector.stats.minor_count > 0
    assert keep.space is not SpaceId.FREED


def test_oom_when_live_exceeds_heap(vm):
    with pytest.raises(OutOfMemoryError):
        while True:
            vm.roots.add(vm.allocate(128 * KiB))
    assert vm.oom


def test_allocate_array(vm):
    objs = vm.allocate_array(5, 256, name="arr")
    assert len(objs) == 5
    assert all(o.size == 256 for o in objs)


def test_allocate_temp_dies_at_gc(vm):
    vm.allocate_temp(64 * KiB)
    used_before = vm.heap.eden.used
    assert used_before >= 64 * KiB
    vm.minor_gc()
    assert vm.heap.eden.used == 0


def test_write_ref_appends_and_removes(vm):
    a, b, c = vm.allocate(64), vm.allocate(64), vm.allocate(64)
    vm.write_ref(a, b)
    assert b in a.refs
    vm.write_ref(a, c, remove=b)
    assert b not in a.refs and c in a.refs


def test_write_ref_to_freed_object_faults(vm):
    dead = vm.allocate(64)
    vm.minor_gc()
    with pytest.raises(SegmentationFault):
        vm.write_ref(dead, None)


def test_read_freed_object_faults(vm):
    dead = vm.allocate(64)
    vm.minor_gc()
    with pytest.raises(SegmentationFault):
        vm.read_object(dead)


def test_barrier_counts_updates(vm):
    a, b = vm.allocate(64), vm.allocate(64)
    vm.write_ref(a, b)
    assert vm.barrier.barrier_count == 1


def test_compute_parallel_scaling():
    fast = JavaVM(VMConfig(heap_size=gb(4), mutator_threads=16))
    slow = JavaVM(VMConfig(heap_size=gb(4), mutator_threads=1))
    fast.compute(10000)
    slow.compute(10000)
    assert fast.clock.now < slow.clock.now


def test_clear_refs(vm):
    a, b = vm.allocate(64), vm.allocate(64)
    vm.write_ref(a, b)
    vm.clear_refs(a)
    assert a.refs == []


def test_clear_refs_of_reclaimed_object_faults(vm):
    a, b = vm.allocate(64), vm.allocate(64)
    vm.write_ref(a, b)
    vm.major_gc()  # nothing roots ``a``
    assert a.space is SpaceId.FREED
    store = vm.store
    version, targets = store.edge_version, store.refs[a.oid]
    with pytest.raises(SegmentationFault, match="reclaimed object"):
        vm.clear_refs(a)
    # A clear before the fault would bump the edge version.
    assert store.edge_version == version
    assert store.refs[a.oid] is targets


def test_breakdown_and_elapsed(vm):
    vm.allocate(1024)
    assert vm.elapsed() == sum(vm.breakdown().values())


def test_teraheap_vm_has_h2_and_hints():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(4),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(32), region_size=16 * KiB
            ),
        )
    )
    assert vm.h2 is not None
    assert vm.collector.name == "teraheap"
    obj = vm.allocate(1024)
    vm.roots.add(obj)
    vm.h2_tag_root(obj, "x")
    vm.h2_move("x")
    vm.major_gc()
    assert obj.space is SpaceId.H2


def test_plain_vm_has_no_h2(vm):
    assert vm.h2 is None
    assert vm.collector.name == "ps"


def test_collector_selection():
    from repro.config import PantheraConfig

    for name, cls_name in [
        ("ps11", "ParallelScavengeJDK11"),
        ("g1", "G1Collector"),
        ("memmode", "MemoryModeCollector"),
    ]:
        vm = JavaVM(VMConfig(heap_size=gb(4), collector=name))
        assert type(vm.collector).__name__ == cls_name
    vm = JavaVM(
        VMConfig(
            heap_size=gb(4), collector="panthera", panthera=PantheraConfig()
        )
    )
    assert type(vm.collector).__name__ == "PantheraCollector"


def test_caller_supplied_h2_device_is_not_mutated():
    """Regression: JavaVM used to rebind the caller's device in place,
    silently redirecting another VM's I/O charges onto this VM's clock."""
    from repro.clock import Clock
    from repro.devices.nvme import NVMeSSD

    shared_clock = Clock()
    shared_device = NVMeSSD(shared_clock)
    vm = JavaVM(
        VMConfig(
            heap_size=gb(4),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(32), region_size=16 * KiB
            ),
        ),
        h2_device=shared_device,
    )
    assert shared_device.clock is shared_clock
    obj = vm.allocate(1024)
    vm.roots.add(obj)
    vm.h2_tag_root(obj, "x")
    vm.h2_move("x")
    vm.major_gc()
    assert obj.space is SpaceId.H2
    # All H2 traffic landed on the VM's own copy, none on the original.
    assert shared_device.traffic.bytes_written == 0
    assert shared_clock.now == 0.0
    assert vm.h2.device.clock is vm.clock
