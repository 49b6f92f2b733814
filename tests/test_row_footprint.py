"""A heap row costs its store columns and little more.

Every simulated object is one row of :class:`~repro.heap.store.HeapStore`.
Rows outlive their objects (oids are never reused), so a workload that
allocates and frees millions of short-lived objects keeps every row it
ever made.  This file bounds what one such row costs in host memory,
measured with ``tracemalloc``, and pins the behaviour the cheap row
layout must keep: rows with no references share the immutable ``()``
until their first write, names are interned, and the store drops its
handle once a row is FREED while a handle held elsewhere still faults.
"""

import tracemalloc

import pytest

from repro import JavaVM, SegmentationFault, VMConfig
from repro.errors import InvariantViolation
from repro.heap.audit import AuditLevel, HeapAuditor
from repro.heap.object_model import SpaceId
from repro.heap.store import SPACE_FREED
from repro.units import MiB

ROWS = 20_000
#: distinct names among the rows (Spark names repeat every iteration)
DISTINCT_NAMES = 10
#: array columns: six int64 (size, address, age, region id, mark epoch,
#: forwarding address), one float64 (scan factor), three int8 (space,
#: forward space, flags)
COLUMN_BYTES = 6 * 8 + 8 + 3
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


def names(count: int):
    """Fresh (not shared) name strings that repeat, as Spark's do."""
    return [f"part-{i % DISTINCT_NAMES}-chunk" for i in range(count)]


def test_freed_row_costs_its_columns():
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


def test_held_handle_still_faults_after_its_row_is_freed():
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


def test_full_auditor_flags_a_handle_on_a_freed_row():
    vm = make_vm()
    auditor = HeapAuditor(vm.heap, vm.store, level=AuditLevel.FULL)
    (obj,) = vm.allocate_many([32], ["doomed"])
    vm.minor_gc()
    auditor.audit("minor", 0)
    vm.store.handles[obj.oid] = obj
    with pytest.raises(InvariantViolation, match="store-rows"):
        auditor.audit("minor", 0)


def test_full_auditor_flags_a_nonempty_tuple_row():
    vm = make_vm()
    auditor = HeapAuditor(vm.heap, vm.store, level=AuditLevel.FULL)
    a, b = vm.allocate_many([32, 32], ["a", "b"])
    vm.store.refs[a.oid] = (b.oid,)
    with pytest.raises(InvariantViolation, match="store-rows"):
        auditor.audit("minor", 0)
