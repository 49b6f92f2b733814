"""Parallel Scavenge semantics: scavenge, promotion, mark-compact, cards."""

import pytest

from repro import JavaVM, VMConfig, gb
from repro.clock import Bucket
from repro.heap.object_model import SpaceId


@pytest.fixture
def vm():
    return JavaVM(VMConfig(heap_size=gb(8), page_cache_size=gb(2)))


def test_minor_gc_reclaims_garbage(vm):
    for _ in range(50):
        vm.allocate(4096)  # unrooted garbage
    before = vm.heap.eden.used
    vm.minor_gc()
    assert vm.heap.eden.used == 0
    cycle = vm.collector.stats.cycles[-1]
    assert cycle.kind == "minor"
    assert cycle.reclaimed_bytes >= before


def test_minor_gc_keeps_rooted_objects(vm):
    root = vm.allocate(4096, name="root")
    vm.roots.add(root)
    vm.minor_gc()
    assert root.space in (SpaceId.FROM, SpaceId.OLD)


def test_minor_gc_traces_references(vm):
    child = vm.allocate(2048)
    root = vm.allocate(64, refs=[child])
    vm.roots.add(root)
    vm.minor_gc()
    assert child.space is not SpaceId.FREED


def test_dead_objects_marked_freed(vm):
    dead = vm.allocate(2048)
    vm.minor_gc()
    assert dead.space is SpaceId.FREED


def test_survivors_age_and_promote(vm):
    root = vm.allocate(4096)
    vm.roots.add(root)
    vm.minor_gc()
    assert root.space is SpaceId.FROM
    assert root.age == 1
    vm.minor_gc()
    # tenuring threshold is 2: promoted on the second survival
    assert root.space is SpaceId.OLD


def test_old_to_young_reference_via_card_table(vm):
    """An old object's reference to a young object must keep it alive."""
    holder = vm.allocate(4096)
    vm.roots.add(holder)
    vm.minor_gc()
    vm.minor_gc()  # holder now old
    assert holder.space is SpaceId.OLD
    young = vm.allocate(1024)
    vm.write_ref(holder, young)  # barrier dirties the card
    vm.roots.remove(holder)  # not a root anymore, but old gen isn't swept
    vm.minor_gc()
    assert young.space is not SpaceId.FREED


def test_minor_gc_charges_minor_bucket(vm):
    vm.allocate(4096)
    vm.minor_gc()
    assert vm.clock.total(Bucket.MINOR_GC) > 0


def test_major_gc_compacts_into_old(vm):
    root = vm.allocate(4096)
    vm.roots.add(root)
    vm.major_gc()
    assert root.space is SpaceId.OLD
    cycle = vm.collector.stats.cycles[-1]
    assert cycle.kind == "major"
    assert set(cycle.phases) == {"marking", "precompact", "adjust", "compact"}


def test_major_gc_reclaims_old_garbage(vm):
    junk = [vm.allocate(4096) for _ in range(10)]
    keep = vm.allocate(4096)
    vm.roots.add(keep)
    vm.minor_gc()
    vm.minor_gc()  # promote everything live... junk dies in first minor
    vm.major_gc()
    assert keep.space is SpaceId.OLD
    for o in junk:
        assert o.space is SpaceId.FREED


def test_major_gc_address_order_preserved(vm):
    """Sliding compaction: surviving old objects keep their relative order."""
    objs = []
    for i in range(5):
        o = vm.allocate(2048, name=f"o{i}")
        vm.roots.add(o)
        objs.append(o)
    vm.major_gc()
    addresses = [o.address for o in objs]
    vm.major_gc()
    assert [o.address for o in objs] == addresses  # stable prefix untouched


def test_major_gc_charges_major_bucket(vm):
    vm.allocate(4096)
    vm.major_gc()
    assert vm.clock.total(Bucket.MAJOR_GC) > 0


def test_cycle_records_occupancy(vm):
    root = vm.allocate(4096)
    vm.roots.add(root)
    vm.major_gc()
    cycle = vm.collector.stats.cycles[-1]
    assert 0 <= cycle.old_occupancy_after <= 1


def test_gc_stats_aggregation(vm):
    vm.allocate(4096)
    vm.minor_gc()
    vm.major_gc()
    stats = vm.collector.stats
    assert stats.minor_count == 1
    assert stats.major_count == 1
    assert stats.total_time("minor") > 0
    assert stats.mean_time("major") > 0


def test_allocation_triggers_gc_when_eden_full(vm):
    size = 64 * 1024
    count = vm.heap.eden.capacity // size + 5
    for _ in range(count):
        vm.allocate(size)
    assert vm.collector.stats.minor_count >= 1


def test_ps11_major_parallelism_faster():
    results = {}
    for collector in ("ps", "ps11"):
        vm = JavaVM(VMConfig(heap_size=gb(8), collector=collector))
        roots = [vm.allocate(4096) for _ in range(100)]
        for r in roots:
            vm.roots.add(r)
        snap = vm.clock.snapshot()
        vm.major_gc()
        results[collector] = snap.delta(vm.clock)["major_gc"]
    assert results["ps11"] < results["ps"]


def test_live_exceeding_heap_raises_oom():
    from repro.errors import OutOfMemoryError

    vm = JavaVM(VMConfig(heap_size=gb(4)))
    with pytest.raises(OutOfMemoryError):
        kept = []
        for _ in range(10000):
            o = vm.allocate(64 * 1024)
            vm.roots.add(o)
            kept.append(o)


def test_full_gc_raises_oom_when_stayers_overflow_eden():
    """First fit leaves a gap in old that the total-size check ignores."""
    from repro.errors import OutOfMemoryError
    from repro.units import KiB

    vm = JavaVM(VMConfig(heap_size=768 * KiB))
    heap = vm.heap
    old = vm.roots.add(vm.allocate(heap.old.capacity - 20 * KiB))
    survivor = vm.roots.add(vm.allocate(25 * KiB))
    vm.minor_gc()
    young = [vm.roots.add(vm.allocate(95 * KiB)) for _ in range(2)]
    assert old.space is SpaceId.OLD
    assert survivor.space is SpaceId.FROM
    assert all(o.space is SpaceId.EDEN for o in young)
    # Every stayer fits in old + eden, but neither eden object nor the
    # survivor fits the 20 KiB gap, so eden would need 10,444 B more.
    stayers = old.size + survivor.size + sum(o.size for o in young)
    assert stayers <= heap.old.capacity + heap.eden.capacity
    with pytest.raises(OutOfMemoryError, match="exceeds heap after full GC"):
        vm.major_gc()
    assert heap.eden.top <= heap.eden.end
