"""GC safety: property-based and randomized mutator-vs-collector tests.

The central memory-safety invariant of the whole design (Section 3.3):
*no object reachable from the roots is ever reclaimed*, regardless of the
interleaving of allocations, reference updates, H2 tagging/moves, and
collections — including lazy bulk region reclamation.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.heap.object_model import SpaceId
from repro.units import KiB


def reachable(vm):
    """Objects reachable from the simulated roots."""
    seen = {}
    stack = list(vm.roots)
    while stack:
        obj = stack.pop()
        if obj.oid in seen:
            continue
        seen[obj.oid] = obj
        stack.extend(obj.refs)
    return seen.values()


def assert_no_reachable_freed(vm):
    for obj in reachable(vm):
        assert obj.space is not SpaceId.FREED, (
            f"reachable object #{obj.oid} ({obj.name}) was reclaimed"
        )


def make_th_vm(heap_gb=4):
    vm = JavaVM(
        VMConfig(
            heap_size=gb(heap_gb),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(64),
                region_size=16 * KiB,
                low_threshold=0.4,
            ),
            page_cache_size=gb(2),
        )
    )
    vm.collector.policy.high_threshold = 0.7
    return vm


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_mutator_never_loses_reachable_objects(seed):
    """Randomised workload against a TeraHeap VM; after every GC, the
    reachable set is intact."""
    rng = random.Random(seed)
    vm = make_th_vm()
    pinned = []
    label_counter = 0
    for step in range(120):
        action = rng.random()
        if action < 0.45:  # allocate, sometimes pin
            obj = vm.allocate(rng.randint(64, 8 * KiB))
            if rng.random() < 0.4:
                vm.roots.add(obj)
                pinned.append(obj)
        elif action < 0.65 and pinned:  # link two pinned objects
            src, dst = rng.choice(pinned), rng.choice(pinned)
            if src.space is not SpaceId.FREED and dst.space is not SpaceId.FREED:
                vm.write_ref(src, dst)
        elif action < 0.75 and pinned:  # unpin (make garbage)
            obj = pinned.pop(rng.randrange(len(pinned)))
            vm.roots.remove(obj)
        elif action < 0.85 and pinned:  # tag + move a group to H2
            obj = rng.choice(pinned)
            if obj.in_h1 and obj.label is None:
                label_counter += 1
                vm.h2_tag_root(obj, f"grp-{label_counter}")
                vm.h2_move(f"grp-{label_counter}")
        elif action < 0.93:
            vm.minor_gc()
            assert_no_reachable_freed(vm)
        else:
            vm.major_gc()
            assert_no_reachable_freed(vm)
    vm.major_gc()
    assert_no_reachable_freed(vm)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_h2_regions_reclaimed_only_when_dead(seed):
    """Whenever a region is reclaimed, none of its objects were reachable."""
    rng = random.Random(seed)
    vm = make_th_vm()
    groups = []
    for i in range(12):
        with vm.roots.frame() as frame:
            children = [
                frame.push(vm.allocate(rng.randint(512, 4 * KiB)))
                for _ in range(rng.randint(2, 8))
            ]
            root = vm.allocate(128, refs=children)
        vm.roots.add(root)
        vm.h2_tag_root(root, f"g{i}")
        vm.h2_move(f"g{i}")
        groups.append(root)
    vm.major_gc()
    # Drop a random subset, keep the rest.
    dropped = set()
    for root in groups:
        if rng.random() < 0.5:
            vm.roots.remove(root)
            dropped.add(root)
    vm.major_gc()
    for root in groups:
        if root in dropped:
            assert root.space is SpaceId.FREED
        else:
            assert root.space is SpaceId.H2
            for child in root.refs:
                assert child.space is SpaceId.H2
    assert_no_reachable_freed(vm)


def test_region_group_policy_is_safe_but_conservative():
    """Region groups must never reclaim a live region; they may keep
    dead ones (the Section 3.3 trade-off)."""
    for policy in ("deps", "groups"):
        vm = JavaVM(
            VMConfig(
                heap_size=gb(4),
                teraheap=TeraHeapConfig(
                    enabled=True,
                    h2_size=gb(64),
                    region_size=16 * KiB,
                    region_policy=policy,
                ),
                page_cache_size=gb(2),
            )
        )
        a = vm.allocate(4 * KiB, name="a")
        b = vm.allocate(4 * KiB, name="b")
        vm.roots.add(a)
        vm.roots.add(b)
        vm.h2_tag_root(a, "A")
        vm.h2_tag_root(b, "B")
        vm.h2_move("A")
        vm.h2_move("B")
        vm.major_gc()
        vm.write_ref(a, b)  # cross-region A -> B
        vm.roots.remove(a)
        vm.major_gc()
        # B stays reachable via... nothing (A is dead): under deps, both
        # die; under groups, both die too (whole group dead). Either way
        # the live root set is intact.
        assert_no_reachable_freed(vm)


def test_backward_ref_chain_survives_many_gcs():
    vm = make_th_vm()
    h1_target = vm.allocate(1024, is_metadata=True, name="h1-anchor")
    root = vm.allocate(128, refs=[h1_target], name="h2-root")
    vm.roots.add(root)
    vm.h2_tag_root(root, "chain")
    vm.h2_move("chain")
    vm.major_gc()
    assert root.space is SpaceId.H2
    assert h1_target.space is SpaceId.OLD
    for _ in range(5):
        vm.allocate(32 * KiB)  # churn
        vm.minor_gc()
        vm.major_gc()
    assert h1_target.space is SpaceId.OLD
    assert_no_reachable_freed(vm)
