"""TeraHeap-extended collector: moves, fencing, reclamation, backward refs."""

import pytest

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.errors import SegmentationFault
from repro.heap.object_model import SpaceId
from repro.teraheap.h2_card_table import CardState
from repro.units import KiB

from helpers import make_group


@pytest.fixture
def vm():
    config = VMConfig(
        heap_size=gb(8),
        teraheap=TeraHeapConfig(
            enabled=True, h2_size=gb(64), region_size=16 * KiB
        ),
        page_cache_size=gb(4),
    )
    return JavaVM(config)


def test_tagged_closure_moves_on_hint(vm):
    root, children = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    assert root.space is SpaceId.H2
    assert all(c.space is SpaceId.H2 for c in children)
    assert root.label == "grp"


def test_without_move_hint_objects_stay(vm):
    root, children = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.major_gc()  # no h2_move, no pressure
    assert root.space is SpaceId.OLD
    assert all(c.in_h1 for c in children)


def test_same_label_shares_regions(vm):
    root, children = make_group(vm, count=5, size=1024)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    regions = {c.region_id for c in children}
    assert len(regions) == 1


def test_metadata_excluded_from_closure(vm):
    meta = vm.allocate(1024, is_metadata=True, name="class-obj")
    ref = vm.allocate(1024, is_reference=True, name="weakref")
    plain = vm.allocate(1024)
    root = vm.allocate(64, refs=[meta, ref, plain])
    vm.roots.add(root)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    assert root.space is SpaceId.H2
    assert plain.space is SpaceId.H2
    assert meta.space is SpaceId.OLD  # excluded (Section 3.2)
    assert ref.space is SpaceId.OLD


def test_fencing_no_h2_traversal_after_move(vm):
    root, _ = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    fenced_before = vm.collector.forward_refs_fenced
    vm.major_gc()
    # The cache-root -> H2 reference is fenced instead of traversed.
    assert vm.collector.forward_refs_fenced > fenced_before


def test_dead_region_reclaimed_in_bulk(vm):
    root, children = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    vm.roots.remove(root)
    vm.major_gc()
    assert vm.h2.regions_reclaimed > 0
    assert root.space is SpaceId.FREED
    assert all(c.space is SpaceId.FREED for c in children)


def test_live_region_not_reclaimed(vm):
    root, _ = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    vm.major_gc()
    assert vm.h2.regions_reclaimed == 0
    assert root.space is SpaceId.H2


def test_backward_reference_keeps_h1_object_alive(vm):
    stay = vm.allocate(1024, name="h1-target")
    root = vm.allocate(64, refs=[stay])
    vm.roots.add(root)
    vm.h2_tag_root(root, "grp")
    # The H1 target is independently pinned so it is NOT part of the
    # closure... it is reachable only through the H2 object afterwards.
    stay.is_metadata = True  # exclude from the closure (stays in H1)
    vm.h2_move("grp")
    vm.major_gc()
    assert root.space is SpaceId.H2
    assert stay.space is SpaceId.OLD
    # Now the only path to `stay` is H2 -> H1 (a backward reference).
    vm.major_gc()
    assert stay.space is SpaceId.OLD  # kept alive via the H2 card table


def test_backward_reference_card_marked(vm):
    stay = vm.allocate(1024)
    stay.is_metadata = True
    root = vm.allocate(64, refs=[stay])
    vm.roots.add(root)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    states = [s for _, s in vm.h2.card_table.iter_states()]
    assert states  # at least one non-clean card tracks root -> stay


def test_h2_mutator_update_dirties_card(vm):
    root, _ = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    target = vm.allocate(256)
    vm.roots.add(target)
    vm.write_ref(root, target)  # mutator updates an H2 object
    idx = vm.h2.card_table.card_index(root.address)
    assert vm.h2.card_table.state(idx) is CardState.DIRTY


def test_minor_gc_honours_h2_backward_refs(vm):
    root, _ = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    young = vm.allocate(512, name="young-target")
    vm.write_ref(root, young)  # H2 -> young H1 backward reference
    vm.minor_gc()
    assert young.space is not SpaceId.FREED


def test_high_threshold_moves_without_hint():
    config = VMConfig(
        heap_size=gb(2),
        teraheap=TeraHeapConfig(
            enabled=True,
            h2_size=gb(64),
            region_size=16 * KiB,
            low_threshold=0.15,
        ),
        page_cache_size=gb(1),
    )
    vm = JavaVM(config)
    vm.collector.policy.high_threshold = 0.30
    root, children = make_group(vm, count=110, size=8 * KiB)
    vm.h2_tag_root(root, "grp")  # tagged but never h2_move()d
    vm.major_gc()
    assert vm.collector.policy.pressure_transfers >= 1
    assert root.space is SpaceId.H2


def test_freed_h2_object_access_is_segfault(vm):
    root, children = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    vm.roots.remove(root)
    vm.major_gc()
    with pytest.raises(SegmentationFault):
        vm.read_object(children[0])


def test_moved_bytes_accounted(vm):
    root, children = make_group(vm, count=10, size=2048)
    expected = root.size + sum(c.size for c in children)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    assert vm.h2.bytes_moved == expected
    cycle = vm.collector.stats.cycles[-1]
    assert cycle.moved_to_h2_bytes == expected


def test_h2_read_goes_through_mapping(vm):
    root, children = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    cache = vm.h2.page_cache
    before = cache.hits + cache.misses
    vm.read_object(children[0])
    # The read faults through the page cache (freshly written pages may
    # still be resident and hit).
    assert cache.hits + cache.misses > before


def test_h2_read_cold_cache_hits_device(vm):
    root, children = make_group(vm)
    vm.h2_tag_root(root, "grp")
    vm.h2_move("grp")
    vm.major_gc()
    # Evict everything (e.g. other I/O displaced the cache).
    vm.h2.page_cache.invalidate(
        [page for page, _ in vm.h2.page_cache.lru()]
    )
    before = vm.h2.device.traffic.bytes_read
    vm.read_object(children[0])
    assert vm.h2.device.traffic.bytes_read > before


def test_two_groups_reclaim_independently(vm):
    root_a, _ = make_group(vm, name="a")
    root_b, _ = make_group(vm, name="b")
    vm.h2_tag_root(root_a, "a")
    vm.h2_tag_root(root_b, "b")
    vm.h2_move("a")
    vm.h2_move("b")
    vm.major_gc()
    vm.roots.remove(root_a)
    vm.major_gc()
    assert root_a.space is SpaceId.FREED
    assert root_b.space is SpaceId.H2


def test_card_scan_edge_keeps_its_target_region_live(vm):
    a_root, _ = make_group(vm, name="a")
    b_root, b_children = make_group(vm, name="b")
    for root, label in ((a_root, "a"), (b_root, "b")):
        vm.h2_tag_root(root, label)
        vm.h2_move(label)
    vm.major_gc()
    target = b_children[0]
    assert a_root.space is SpaceId.H2 and target.space is SpaceId.H2
    vm.roots.remove(b_root)
    # Only this mutator edge keeps the target's region alive.  The next
    # marking fences the root a_root first and finds the edge later, in
    # the H2 card scan, so liveness must be propagated again afterwards.
    vm.write_ref(a_root, target)
    vm.major_gc()
    assert target.space is SpaceId.H2
    assert vm.h2.regions[target.region_id].live
    assert target.region_id in vm.h2.regions[a_root.region_id].deps
