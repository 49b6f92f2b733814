"""The two cross-region policies on one liveness mechanism (Section 3.3).

Dependency lists ("deps", the paper's design) keep each cross-region
edge's direction.  Region groups ("groups", the alternative the paper
rejects) record each edge in both regions' lists, so a group is a
connected component of the edges with direction dropped, and one H1
reference into any member keeps the whole group.  Both policies run the
same marking walk, reclamation and dependency-closure audit, checked
here on :class:`H2Heap` and on a VM.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Clock
from repro.devices.nvme import NVMeSSD
from repro.errors import InvariantViolation
from repro.heap.object_model import HeapObject
from repro.heap.store import HeapStore
from repro.teraheap.h2_heap import H2Heap
from repro.units import KiB

POLICIES = ("deps", "groups")


def make_h2(policy: str, count: int, store=None) -> H2Heap:
    """An H2 heap whose regions 0..count-1 hold one object each."""
    store = store if store is not None else HeapStore()
    clock = Clock()
    config = TeraHeapConfig(
        enabled=True, h2_size=gb(16), region_size=16 * KiB,
        region_policy=policy,
    )
    h2 = H2Heap(
        config, NVMeSSD(clock), clock, page_cache_size=gb(1), store=store
    )
    for i in range(count):
        h2.assign_address(HeapObject(1024, store=store), f"r{i}", 1)
    return h2


def collect(h2: H2Heap, marked) -> set:
    """One marking and reclamation; returns the surviving regions."""
    h2.reset_live_bits()
    h2.mark_regions_live(marked)
    h2.reclaim_dead_regions(epoch=2)
    return {i for i, r in h2.regions.items() if not r.is_empty}


def assert_no_edge_leaves_survivors(h2: H2Heap) -> None:
    survivors = {i for i, r in h2.regions.items() if not r.is_empty}
    for index, region in h2.regions.items():
        if index in survivors:
            assert region.deps <= survivors
        else:
            assert region.deps == set()


@pytest.mark.parametrize("policy", POLICIES)
def test_chain_with_only_its_last_region_marked(policy):
    """X->Y->Z with only Z referenced from H1: dependency lists reclaim X
    and Y (the win of keeping direction); one reference into the group
    keeps it all."""
    h2 = make_h2(policy, 3)
    h2.record_cross_region_ref(0, 1)
    h2.record_cross_region_ref(1, 2)
    survivors = collect(h2, [2])
    assert survivors == ({2} if policy == "deps" else {0, 1, 2})
    assert h2.regions_reclaimed == 3 - len(survivors)


def test_groups_record_each_edge_in_both_regions():
    h2 = make_h2("groups", 2)
    h2.record_cross_region_ref(0, 1)
    assert h2.regions[0].deps == {1}
    assert h2.regions[1].deps == {0}


@pytest.mark.parametrize("policy", POLICIES)
def test_independent_groups_reclaim_independently(policy):
    h2 = make_h2(policy, 4)
    h2.record_cross_region_ref(0, 1)
    h2.record_cross_region_ref(2, 3)
    assert collect(h2, [0]) == {0, 1}
    assert collect(h2, [0, 1]) == {0, 1}
    assert collect(h2, []) == set()


@pytest.mark.parametrize("policy", POLICIES)
def test_reclaimed_group_leaves_no_edge_in_any_survivor(policy):
    h2 = make_h2(policy, 5)
    h2.record_cross_region_ref(0, 1)
    h2.record_cross_region_ref(1, 2)
    h2.record_cross_region_ref(3, 4)
    assert collect(h2, [0]) == {0, 1, 2}
    assert_no_edge_leaves_survivors(h2)
    # A reused index joins no old group.
    store = h2.store
    fresh = h2.assign_address(HeapObject(1024, store=store), "new", 3)
    assert fresh.index in (3, 4) and fresh.deps == set()
    assert collect(h2, [fresh.index]) == {fresh.index}


@pytest.mark.parametrize("policy", POLICIES)
def test_hundred_region_chain(policy):
    h2 = make_h2(policy, 100)
    for i in range(99):
        h2.record_cross_region_ref(i, i + 1)
    assert collect(h2, [0]) == set(range(100))
    survivors = collect(h2, [99])
    assert survivors == ({99} if policy == "deps" else set(range(100)))


def closure(edges, marked, undirected: bool) -> set:
    """Regions reachable from ``marked`` over ``edges`` (independent of
    the heap's walk)."""
    reach = set(marked)
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            for src, dst in ((a, b), (b, a)) if undirected else ((a, b),):
                if src in reach and dst not in reach:
                    reach.add(dst)
                    changed = True
    return reach


@given(
    policy=st.sampled_from(POLICIES),
    count=st.integers(min_value=1, max_value=12),
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30
    ),
    marked=st.sets(st.integers(0, 11), max_size=5),
)
@settings(max_examples=150, deadline=None)
def test_survivors_are_the_closure_of_the_marked_regions(
    policy, count, edges, marked
):
    """After reclamation the survivors are the regions reachable from a
    marked one: along edges under "deps", over the undirected connected
    components under "groups"."""
    edges = [(a, b) for a, b in edges if a < count and b < count]
    marked = {m for m in marked if m < count}
    h2 = make_h2(policy, count)
    for a, b in edges:
        h2.record_cross_region_ref(a, b)
    survivors = collect(h2, marked)
    assert survivors == closure(edges, marked, policy == "groups")
    assert_no_edge_leaves_survivors(h2)


@pytest.mark.parametrize("policy", POLICIES)
def test_auditor_rejects_a_deleted_edge_behind_a_live_reference(policy):
    """Regions A, B, C with references A->B, A->C and C->B.  Deleting
    the A-B edge leaves A and B connected through C, but the A->B
    reference has no edge of its own: the full auditor must fail."""
    vm = JavaVM(
        VMConfig(
            heap_size=gb(8),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=16 * KiB,
                region_policy=policy,
            ),
            page_cache_size=gb(4),
            audit="full",
        )
    )
    a, b, c = (vm.roots.add(vm.allocate(2 * KiB, name=n)) for n in "abc")
    for obj, label in ((a, "A"), (b, "B"), (c, "C")):
        vm.h2_tag_root(obj, label)
        vm.h2_move(label)
        vm.major_gc()
    ia, ib, ic = a.region_id, b.region_id, c.region_id
    assert len({ia, ib, ic}) == 3
    for src, dst in ((a, b), (a, c), (c, b)):
        vm.write_ref(src, dst)
    vm.major_gc()  # the card scan records the three edges; audit passes
    regions = vm.h2.regions
    assert {ib, ic} <= regions[ia].deps and ib in regions[ic].deps
    regions[ia].deps.discard(ib)
    regions[ib].deps.discard(ia)
    with pytest.raises(InvariantViolation) as excinfo:
        vm.auditor.audit("major", vm.collector.mark_epoch)
    assert any(
        v.check == "h2-dependency-closure" for v in excinfo.value.violations
    )
