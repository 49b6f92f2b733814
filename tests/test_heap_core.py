"""Object model, spaces, H1 card table, roots, managed heap."""

import numpy as np
import pytest

from repro.config import VMConfig
from repro.errors import ConfigError
from repro.heap.card_table import CardTable
from repro.heap.heap import H1_BASE, ManagedHeap
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.roots import RootSet
from repro.heap.spaces import OldGeneration, Space
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
        s = Space(SpaceId.EDEN, 0, 1000)
        a, b = HeapObject(100, store=store), HeapObject(200, store=store)
        assert s.allocate(a) and s.allocate(b)
        assert a.address == 0
        assert b.address == 100
        assert s.used == 300
        assert s.free == 700

    def test_allocation_fails_when_full(self, store):
        s = Space(SpaceId.EDEN, 0, 100)
        assert not s.allocate(HeapObject(128, store=store))

    def test_allocate_sets_space(self, store):
        s = Space(SpaceId.OLD, 0, 1000)
        o = HeapObject(64, store=store)
        s.allocate(o)
        assert o.space is SpaceId.OLD

    def test_reset(self, store):
        s = Space(SpaceId.EDEN, 0, 1000)
        s.allocate(HeapObject(64, store=store))
        s.reset()
        assert s.used == 0
        assert s.objects == []

    def test_occupancy(self, store):
        s = Space(SpaceId.EDEN, 0, 1000)
        s.allocate(HeapObject(500, store=store))
        assert s.occupancy == pytest.approx(0.5)

    def test_objects_overlapping(self, store):
        s = Space(SpaceId.OLD, 0, 10000)
        objs = [HeapObject(100, store=store) for _ in range(10)]
        for o in objs:
            s.allocate(o)
        found = s.oids_overlapping(150, 350)
        assert objs[1].oid in found  # [100,200) overlaps
        assert objs[2].oid in found
        assert objs[3].oid in found  # [300,400) overlaps
        assert objs[0].oid not in found
        assert objs[5].oid not in found
        # A range past the last object's end holds nothing.
        assert s.oids_overlapping(1000, 1100) == []

    def test_objects_overlapping_spanning_object(self, store):
        s = Space(SpaceId.OLD, 0, 10000)
        big = HeapObject(5000, store=store)
        s.allocate(big)
        assert s.oids_overlapping(4000, 4100) == [big.oid]

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            Space(SpaceId.EDEN, 0, -1)

    def test_old_generation_rebuild(self, store):
        old = OldGeneration(0, 10000)
        objs = [HeapObject(100, store=store) for _ in range(3)]
        for i, o in enumerate(objs):
            o.address = i * 100
        old.rebuild_after_compaction(objs)
        assert old.top == 300
        assert old.objects == objs


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
    def make_heap(self):
        return ManagedHeap(VMConfig(heap_size=gb(8)))

    def test_layout_is_contiguous(self):
        heap = self.make_heap()
        assert heap.eden.base == H1_BASE
        assert heap.survivor_from.base == heap.eden.end
        assert heap.survivor_to.base == heap.survivor_from.end
        assert heap.old.base == heap.survivor_to.end

    def test_allocation_goes_to_eden(self, store):
        heap = self.make_heap()
        o = HeapObject(1024, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.EDEN

    def test_oversized_goes_to_old(self, store):
        heap = self.make_heap()
        o = HeapObject(heap.eden.capacity // 2 + 16, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.OLD

    def test_pretenure_threshold(self, store):
        heap = self.make_heap()
        heap.pretenure_threshold = 1024
        o = HeapObject(2048, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.OLD

    def test_allocation_fails_when_eden_full(self, store):
        heap = self.make_heap()
        size = heap.eden.capacity // 4
        while heap.try_allocate(HeapObject(size, store=store)):
            pass
        assert not heap.try_allocate(HeapObject(size, store=store))

    def test_swap_survivors(self, store):
        heap = self.make_heap()
        o = HeapObject(64, store=store)
        heap.survivor_to.allocate(o)
        heap.swap_survivors()
        assert o.space is SpaceId.FROM
        assert heap.survivor_from.objects == [o]

    def test_used_and_occupancy(self, store):
        heap = self.make_heap()
        heap.try_allocate(HeapObject(1024, store=store))
        assert heap.used() == 1024
