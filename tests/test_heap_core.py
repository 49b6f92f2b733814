"""Object model, spaces, H1 card table, roots, managed heap."""

import numpy as np
import pytest

from repro.config import VMConfig
from repro.errors import ConfigError
from repro.heap.card_table import CardTable
from repro.heap.heap import H1_BASE, ManagedHeap
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.roots import RootSet
from repro.gc.g1 import G1Region
from repro.heap.spaces import Space
from repro.teraheap.regions import Region
from repro.units import gb


# ---------------------------------------------------------------------
# HeapObject
# ---------------------------------------------------------------------
class TestObjectModel:
    def test_minimum_size_enforced(self, store):
        with pytest.raises(ValueError):
            HeapObject(8, store=store)

    def test_oids_unique(self, store):
        a, b = HeapObject(64, store=store), HeapObject(64, store=store)
        assert a.oid != b.oid

    def test_defaults(self, store):
        o = HeapObject(64, store=store)
        assert o.space is SpaceId.EDEN
        assert o.label is None
        assert not o.h2_candidate
        assert o.serializable

    def test_in_young_and_in_h1(self, store):
        o = HeapObject(64, store=store)
        for space, young, h1 in [
            (SpaceId.EDEN, True, True),
            (SpaceId.FROM, True, True),
            (SpaceId.TO, True, True),
            (SpaceId.OLD, False, True),
            (SpaceId.H2, False, False),
            (SpaceId.FREED, False, False),
        ]:
            o.space = space
            assert o.in_young is young
            assert o.in_h1 is h1

    def test_in_h2(self, store):
        o = HeapObject(64, store=store)
        o.space = SpaceId.H2
        assert o.in_h2

    def test_end_address(self, store):
        o = HeapObject(100, store=store)
        o.address = 1000
        assert o.end_address() == 1100

    def test_refs_are_copied(self, store):
        children = [HeapObject(64, store=store)]
        o = HeapObject(64, refs=children, store=store)
        children.append(HeapObject(64, store=store))
        assert len(o.refs) == 1


# ---------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------
class TestSpace:
    def test_bump_allocation(self, store):
        s = Space(store, SpaceId.EDEN, 0, 1000)
        a, b = HeapObject(100, store=store), HeapObject(200, store=store)
        assert s.allocate(a.oid) and s.allocate(b.oid)
        assert a.address == 0
        assert b.address == 100
        assert s.used == 300
        assert s.free == 700
        assert s.oid_array().tolist() == [a.oid, b.oid]

    def test_allocation_fails_when_full(self, store):
        s = Space(store, SpaceId.EDEN, 0, 100)
        assert not s.allocate(HeapObject(128, store=store).oid)

    def test_reset(self, store):
        s = Space(store, SpaceId.EDEN, 0, 1000)
        s.allocate(HeapObject(64, store=store).oid)
        s.reset()
        assert s.used == 0
        assert len(s) == 0

    def test_oid_array_survives_reset(self, store):
        s = Space(store, SpaceId.EDEN, 0, 1000)
        a = HeapObject(64, store=store)
        s.allocate(a.oid)
        held = s.oid_array()
        s.reset()
        s.allocate(HeapObject(64, store=store).oid)
        assert held.tolist() == [a.oid]

    def test_occupancy(self, store):
        s = Space(store, SpaceId.EDEN, 0, 1000)
        s.allocate(HeapObject(500, store=store).oid)
        assert s.occupancy == pytest.approx(0.5)

    def test_objects_overlapping(self, store):
        s = Space(store, SpaceId.OLD, 0, 10000)
        objs = [HeapObject(100, store=store) for _ in range(10)]
        for o in objs:
            s.allocate(o.oid)
        (found,) = s.oids_overlapping([150], [350])
        assert objs[1].oid in found  # [100,200) overlaps
        assert objs[2].oid in found
        assert objs[3].oid in found  # [300,400) overlaps
        assert objs[0].oid not in found
        assert objs[5].oid not in found
        # A range past the last object's end holds nothing.
        assert s.oids_overlapping([1000], [1100]) == [[]]

    def test_objects_overlapping_spanning_object(self, store):
        s = Space(store, SpaceId.OLD, 0, 10000)
        big = HeapObject(5000, store=store)
        s.allocate(big.oid)
        assert s.oids_overlapping([4000], [4100]) == [[big.oid]]

    def test_negative_capacity_rejected(self, store):
        with pytest.raises(ConfigError):
            Space(store, SpaceId.EDEN, 0, -1)

    def test_old_generation_rebuild(self, store):
        old = Space(store, SpaceId.OLD, 0, 10000)
        old.allocate(HeapObject(64, store=store).oid)
        objs = [HeapObject(100, store=store) for _ in range(3)]
        for i, o in enumerate(objs):
            o.address = i * 100
        oids = np.asarray([o.oid for o in objs], dtype=np.int64)
        old.rebuild_after_compaction(oids, 300)
        assert old.top == 300
        assert old.oid_array().tolist() == oids.tolist()
        assert old.oids_overlapping([150], [250]) == [
            [objs[1].oid, objs[2].oid]
        ]


def _extent(kind, store, base, capacity):
    if kind == "space":
        return Space(store, SpaceId.OLD, base, capacity)
    if kind == "h2-region":
        return Region(store, 0, base, capacity)
    return G1Region(store, 0, base, capacity)


@pytest.mark.parametrize("kind", ["space", "h2-region", "g1-region"])
def test_oids_overlapping(kind, store):
    """H1 spaces, H2 regions and G1 regions answer card-segment overlap
    queries with the one extent index, one range or many at once."""
    base = 0x1000
    extent = _extent(kind, store, base, 10000)
    assert extent.oids_overlapping([base], [base + 10000]) == [[]]
    assert extent.oids_overlapping([], []) == []
    objs = [HeapObject(100, store=store) for _ in range(10)]
    big = HeapObject(5000, store=store)
    for o in objs + [big]:
        assert extent.allocate(o.oid)
    cases = [
        # [100, 200) starts before lo; [300, 400) ends past hi.
        (150, 350, [objs[1].oid, objs[2].oid, objs[3].oid]),
        # [100, 200) ends exactly at lo and [300, 400) starts at hi.
        (200, 300, [objs[2].oid]),
        # A range inside one object, which starts before lo.
        (4000, 4100, [big.oid]),
        # A range past the last object's end holds nothing.
        (6000, 6100, []),
        # A range before the first object holds nothing.
        (-50, 0, []),
    ]
    for lo, hi, expected in cases:
        assert extent.oids_overlapping([base + lo], [base + hi]) == [expected]
    # One query for every range, in any order, answers each the same.
    for order in (cases, cases[::-1]):
        assert extent.oids_overlapping(
            [base + lo for lo, _, _ in order], [base + hi for _, hi, _ in order]
        ) == [expected for _, _, expected in order]
    extent.reset()
    assert extent.oids_overlapping([base], [base + 10000]) == [[]]


# ---------------------------------------------------------------------
# H1 card table
# ---------------------------------------------------------------------
class TestCardTable:
    def test_card_index(self):
        ct = CardTable(base=0, size=4096, card_size=512)
        assert ct.num_cards == 8
        assert ct.card_index(0) == 0
        assert ct.card_index(511) == 0
        assert ct.card_index(512) == 1

    def test_out_of_range(self):
        ct = CardTable(base=0, size=4096)
        with pytest.raises(ValueError):
            ct.card_index(4096)

    def test_mark_and_clear(self):
        ct = CardTable(base=0, size=4096)
        ct.mark(600)
        assert ct.is_dirty(1)
        ct.clear(1)
        assert not ct.is_dirty(1)

    def test_dirty_cards_sorted(self):
        ct = CardTable(base=0, size=4096)
        ct.mark(3000)
        ct.mark(100)
        assert list(ct.dirty_cards()) == [0, 5]

    def test_card_range(self):
        ct = CardTable(base=1000, size=4096)
        lo, hi = ct.card_range(0)
        assert (lo, hi) == (1000, 1512)

    def test_invalid_card_size(self):
        with pytest.raises(ValueError):
            CardTable(0, 4096, card_size=0)

    @pytest.mark.parametrize(
        "addresses",
        [
            [],
            [1000, 1100, 1511, 1512, 5095, 1000],
            [3000, 999, 1600],  # below the table: marks 3000 first
            [1200, 5096, 2000],  # past the end
            [5096],
        ],
    )
    def test_mark_many_matches_a_mark_loop(self, addresses):
        def error_of(mark):
            try:
                mark()
            except ValueError as exc:
                return str(exc)
            return None

        tables = [CardTable(1000, 4096) for _ in range(3)]
        for table in tables:
            table.mark(4000)
        a, b, ref = tables
        errors = {
            error_of(lambda: a.mark_many(addresses)),
            error_of(lambda: b.mark_many(np.array(addresses, np.int64))),
            error_of(lambda: [ref.mark(address) for address in addresses]),
        }
        assert len(errors) == 1
        outside = any(not 1000 <= address < 5096 for address in addresses)
        assert (None in errors) is not outside
        for table in (a, b):
            assert list(table.dirty_cards()) == list(ref.dirty_cards())
            assert all(type(card) is int for card in table.dirty_cards())


# ---------------------------------------------------------------------
# Roots
# ---------------------------------------------------------------------
class TestRootSet:
    def test_add_remove(self, store):
        roots = RootSet()
        o = HeapObject(64, store=store)
        roots.add(o)
        assert o in roots
        roots.remove(o)
        assert o not in roots

    def test_iteration(self, store):
        roots = RootSet()
        objs = [HeapObject(64, store=store) for _ in range(3)]
        for o in objs:
            roots.add(o)
        assert set(r.oid for r in roots) == {o.oid for o in objs}

    def test_frame_pins_objects(self, store):
        roots = RootSet()
        o = HeapObject(64, store=store)
        with roots.frame() as frame:
            frame.push(o)
            assert o in roots
            assert len(roots) == 1
        assert o not in roots

    def test_nested_frames(self, store):
        roots = RootSet()
        a, b = HeapObject(64, store=store), HeapObject(64, store=store)
        with roots.frame() as f1:
            f1.push(a)
            with roots.frame() as f2:
                f2.push(b)
                assert a in roots and b in roots
            assert b not in roots
        assert a not in roots

    def test_frame_push_all(self, store):
        roots = RootSet()
        objs = [HeapObject(64, store=store) for _ in range(3)]
        with roots.frame() as frame:
            frame.push_all(objs)
            assert len(roots) == 3


# ---------------------------------------------------------------------
# ManagedHeap
# ---------------------------------------------------------------------
class TestManagedHeap:
    def make_heap(self, store):
        return ManagedHeap(VMConfig(heap_size=gb(8)), store)

    def test_layout_is_contiguous(self, store):
        heap = self.make_heap(store)
        assert heap.eden.base == H1_BASE
        assert heap.survivor_from.base == heap.eden.end
        assert heap.survivor_to.base == heap.survivor_from.end
        assert heap.old.base == heap.survivor_to.end

    def test_allocation_goes_to_eden(self, store):
        heap = self.make_heap(store)
        o = HeapObject(1024, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.EDEN

    def test_oversized_goes_to_old(self, store):
        heap = self.make_heap(store)
        o = HeapObject(heap.eden.capacity // 2 + 16, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.OLD

    def test_pretenure_threshold(self, store):
        heap = self.make_heap(store)
        heap.pretenure_threshold = 1024
        o = HeapObject(2048, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.OLD

    def test_allocation_fails_when_eden_full(self, store):
        heap = self.make_heap(store)
        size = heap.eden.capacity // 4
        while heap.try_allocate(HeapObject(size, store=store)):
            pass
        assert not heap.try_allocate(HeapObject(size, store=store))

    def test_swap_survivors(self, store):
        heap = self.make_heap(store)
        o = HeapObject(64, store=store)
        heap.survivor_to.allocate(o.oid)
        heap.swap_survivors()
        assert o.space is SpaceId.FROM
        assert heap.survivor_from.oid_array().tolist() == [o.oid]

    def test_used_and_occupancy(self, store):
        heap = self.make_heap(store)
        heap.try_allocate(HeapObject(1024, store=store))
        assert heap.used() == 1024
