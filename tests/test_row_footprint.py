"""A heap row costs its store columns and little more.

Every simulated object is one row of :class:`~repro.heap.store.HeapStore`.
A row outlives its object until a Parallel Scavenge collection compacts
the store, which it does once the FREED rows reach twice the live ones,
so a workload that allocates and frees millions of short-lived objects
keeps at most three rows per live one plus what it allocated since the
last collection (:func:`test_collections_bound_the_row_table`).  This
file bounds what one FREED row costs in host memory until then,
measured with ``tracemalloc`` (those tests switch the compaction off),
and pins the behaviour the cheap row layout must keep: rows with no
references share the immutable ``()`` until their first write, names
are interned, and the store drops its handle and references once a row
is FREED while a handle held elsewhere still faults.  It also pins the
row layout itself: a column widened or added to the store fails
:func:`test_store_columns_add_up_to_the_row_layout`.
"""

import gc
import random
import tracemalloc
from array import array

import pytest

from repro import JavaVM, SegmentationFault, VMConfig
from repro.errors import InvariantViolation
from repro.gc.parallel_scavenge import ParallelScavenge
from repro.heap.audit import AuditLevel, make_auditor
from repro.heap.object_model import SpaceId
from repro.heap.store import MAX_AGE, MAX_EPOCH, SPACE_FREED, HeapStore
from repro.units import MiB

ROWS = 20_000
#: distinct names among the rows (Spark names repeat every iteration)
DISTINCT_NAMES = 10
#: array columns: two int64 (size, address), one float64 (scan factor),
#: two int32 (region id, mark epoch), one int8 age and three int8 codes
#: (space, forward space, flags)
COLUMN_BYTES = 2 * 8 + 8 + 4 + 4 + 1 + 3
#: one pointer slot per row in each list column (label, name, refs,
#: handles)
SLOT_BYTES = 4 * 8
#: growth slack: arrays over-allocate by about 1/16 and lists by about
#: 1/8 of their length, plus the GC's leftover bookkeeping
SLACK = 1.25
ROW_BOUND = (COLUMN_BYTES + SLOT_BYTES) * SLACK


def make_vm() -> JavaVM:
    """A PS VM whose eden holds every row of the test at once."""
    return JavaVM(VMConfig(heap_size=16 * MiB, collector="ps"))


@pytest.fixture
def no_compaction(monkeypatch):
    """Keep FREED rows in the store: collections skip the compaction
    that would drop them, so a test can measure or probe a FREED row."""
    monkeypatch.setattr(ParallelScavenge, "compact_store", lambda self: None)


def names(count: int):
    """Fresh (not shared) name strings that repeat, as Spark's do."""
    return [f"part-{i % DISTINCT_NAMES}-chunk" for i in range(count)]


def test_freed_row_costs_its_columns(no_compaction):
    vm = make_vm()
    sizes = [32] * ROWS
    row_names = names(ROWS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        objs = vm.allocate_many(sizes, row_names)
        assert len(objs) == ROWS
        del objs, row_names
        vm.minor_gc()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    store = vm.store
    assert store.object_count == ROWS
    assert set(store.space[1:]) == {SPACE_FREED}
    per_row = (after - before) / ROWS
    assert per_row <= ROW_BOUND, (
        f"{per_row:.1f} B per freed row, bound {ROW_BOUND:.1f} B"
    )


def test_collections_bound_the_row_table():
    """A churn of PS collections keeps the store within three times its
    live rows plus the rows allocated since the last collection."""
    vm = JavaVM(VMConfig(heap_size=MiB, collector="ps"))
    store, stats = vm.store, vm.collector.stats
    rng = random.Random(3)
    kept = []
    live = allocated = collections = compactions = 0
    for i in range(20_000):
        obj = vm.allocate(rng.choice([64, 512, 2048]), name="churn")
        allocated += 1
        if rng.random() < 0.02:
            kept.append(vm.roots.add(obj))
            if len(kept) > 40:
                vm.roots.remove(kept.pop(0))
        if stats.minor_count + stats.major_count > collections:
            collections = stats.minor_count + stats.major_count
            freed = store.freed_rows()
            compactions += freed == 0
            live = len(store) - 1 - freed
            allocated = 0
        assert len(store) - 1 <= 3 * live + allocated, i
    assert collections > 20
    assert compactions > 5


def test_store_columns_add_up_to_the_row_layout():
    store = HeapStore()
    arrays = [c for c in vars(store).values() if isinstance(c, array)]
    lists = [c for c in vars(store).values() if isinstance(c, list)]
    assert all(len(c) == len(store) for c in arrays + lists)
    assert sum(c.itemsize for c in arrays) == COLUMN_BYTES
    assert 8 * len(lists) == SLOT_BYTES


#: references each holder row of :func:`freed_row_bytes` may hold
HOLDER_REFS = 100


def freed_row_bytes(with_refs: bool, rows: int = 2_000) -> float:
    """Host bytes per FREED row whose object held ``HOLDER_REFS``
    references to live objects, or none.

    Both variants start from the same store length, so the columns grow
    through the same over-allocation steps, and both count only what a
    cyclic collection leaves.
    """
    vm = make_vm()
    targets = vm.allocate_many([32] * HOLDER_REFS, names(HOLDER_REFS))
    for target in targets:
        vm.roots.add(target)
    refs = targets if with_refs else None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(rows):
            vm.allocate(16 + 8 * HOLDER_REFS, refs=refs, name="holder")
        vm.minor_gc()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert vm.store.refs[-1] == ()
    return (after - before) / rows


def test_freed_row_drops_its_references(no_compaction):
    # A byte of slack for the allocator's bookkeeping; the references
    # alone would cost over 800 B a row.
    assert freed_row_bytes(True) <= freed_row_bytes(False) + 1


def test_repeated_names_share_one_string():
    vm = make_vm()
    vm.allocate_many([32] * 100, names(100))
    column = vm.store.name
    assert len({id(name) for name in column[1:]}) == DISTINCT_NAMES


def test_append_to_one_fresh_row_leaves_the_others_empty():
    vm = make_vm()
    objs = vm.allocate_many([32] * 50, names(50))
    objs[7].refs.append(objs[8])
    store = vm.store
    assert [o.oid for o in objs[7].refs] == [objs[8].oid]
    for obj in objs:
        if obj is not objs[7]:
            assert len(obj.refs) == 0
            assert store.refs[obj.oid] == ()
    objs[9].refs.extend([objs[1], objs[2]])
    assert list(store.refs[objs[9].oid]) == [objs[1].oid, objs[2].oid]
    assert store.refs[objs[10].oid] == ()
    objs[9].refs.clear()
    assert store.refs[objs[9].oid] == ()


def test_remove_of_absent_target_on_empty_row_raises():
    vm = make_vm()
    a, b = vm.allocate_many([32, 32], ["a", "b"])
    with pytest.raises(ValueError):
        a.refs.remove(b)


def test_held_handle_still_faults_after_its_row_is_freed(no_compaction):
    vm = make_vm()
    (held,) = vm.allocate_many([32], ["doomed"])
    oid = held.oid
    vm.minor_gc()
    assert held.space is SpaceId.FREED
    assert vm.store.handles[oid] is None
    with pytest.raises(SegmentationFault):
        vm.read_object(held)
    with pytest.raises(SegmentationFault):
        vm.write_ref(held, None)
    # A lookup of the FREED row does not put a handle back on it.
    assert vm.store.handle(oid).space is SpaceId.FREED
    assert vm.store.handles[oid] is None


def test_live_row_handle_is_identity_stable():
    vm = make_vm()
    obj = vm.allocate(64, name="kept")
    vm.roots.add(obj)
    store = vm.store
    assert store.handle(obj.oid) is obj
    vm.minor_gc()
    assert obj.space is not SpaceId.FREED
    assert store.handle(obj.oid) is obj
    assert store.handle(obj.oid) is store.handle(obj.oid)


def test_full_auditor_flags_a_handle_on_a_freed_row(no_compaction):
    vm = make_vm()
    auditor = make_auditor(vm, AuditLevel.FULL)
    (obj,) = vm.allocate_many([32], ["doomed"])
    vm.minor_gc()
    auditor.audit("minor", 0)
    vm.store.handles[obj.oid] = obj
    with pytest.raises(InvariantViolation, match="store-rows"):
        auditor.audit("minor", 0)


def test_full_auditor_flags_references_on_a_freed_row(no_compaction):
    vm = make_vm()
    auditor = make_auditor(vm, AuditLevel.FULL)
    a, b = vm.allocate_many([32, 32], ["a", "b"])
    vm.roots.add(b)
    vm.minor_gc()
    auditor.audit("minor", 0)
    vm.store.refs[a.oid] = [b.oid]
    with pytest.raises(InvariantViolation, match="references"):
        auditor.audit("minor", 0)


def test_epoch_counter_stops_at_the_int32_column_bound():
    collector = make_vm().collector
    collector.mark_epoch = MAX_EPOCH - 1
    assert collector.next_epoch() == MAX_EPOCH
    with pytest.raises(OverflowError):
        collector.next_epoch()
    assert collector.mark_epoch == MAX_EPOCH


def test_marking_at_the_last_epoch_fits_the_column():
    vm = make_vm()
    obj = vm.allocate(64, name="kept")
    vm.roots.add(obj)
    vm.collector.mark_epoch = MAX_EPOCH - 1
    vm.minor_gc()
    assert obj.mark_epoch == MAX_EPOCH
    assert obj.space is not SpaceId.FREED


@pytest.mark.parametrize("collector", ["ps", "g1"])
def test_age_past_the_int8_column_raises(collector):
    vm = JavaVM(VMConfig(heap_size=16 * MiB, collector=collector))
    obj = vm.allocate(64, name="ancient")
    vm.roots.add(obj)
    obj.age = MAX_AGE
    with pytest.raises(OverflowError):
        vm.minor_gc()
    assert obj.age == MAX_AGE


def test_age_increment_raises_rather_than_wraps():
    vm = make_vm()
    young, old = vm.allocate_many([32, 32], ["young", "old"])
    old.age = MAX_AGE
    with pytest.raises(OverflowError):
        vm.store.age_increment([young.oid, old.oid])
    assert (young.age, old.age) == (0, MAX_AGE)


def test_full_auditor_flags_a_nonempty_tuple_row():
    vm = make_vm()
    auditor = make_auditor(vm, AuditLevel.FULL)
    a, b = vm.allocate_many([32, 32], ["a", "b"])
    vm.store.refs[a.oid] = (b.oid,)
    with pytest.raises(InvariantViolation, match="store-rows"):
        auditor.audit("minor", 0)
