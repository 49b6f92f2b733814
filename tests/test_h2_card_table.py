"""Four-state H2 card table with slices/stripes (Section 3.4)."""

import pytest

from repro.teraheap.h2_card_table import CardState, H2CardTable
from repro.units import KiB

BASE = 0x1_0000_0000


@pytest.fixture
def table():
    # 1 MiB of H2, 8 KiB segments, 64 KiB stripes.
    return H2CardTable(BASE, 1 << 20, 8 * KiB, 64 * KiB)


def test_geometry(table):
    assert table.num_cards == 128
    assert table.cards_per_stripe == 8
    assert table.num_stripes == 16


def test_default_state_clean(table):
    assert table.state(0) is CardState.CLEAN


def test_mark_dirty(table):
    table.mark_dirty(BASE + 10_000)
    idx = table.card_index(BASE + 10_000)
    assert table.state(idx) is CardState.DIRTY
    assert table.mutator_marks == 1


def test_set_state_transitions(table):
    table.mark_dirty(BASE)
    table.set_state(0, CardState.YOUNG_GEN)
    assert table.state(0) is CardState.YOUNG_GEN
    table.set_state(0, CardState.OLD_GEN)
    assert table.state(0) is CardState.OLD_GEN
    table.set_state(0, CardState.CLEAN)
    assert table.state(0) is CardState.CLEAN


def test_minor_scan_set_excludes_oldgen(table):
    """Minor GC scans dirty + youngGen; oldGen segments are skipped
    because the old generation does not move in a scavenge."""
    table.set_state(0, CardState.DIRTY)
    table.set_state(1, CardState.YOUNG_GEN)
    table.set_state(2, CardState.OLD_GEN)
    assert table.cards_to_scan(major=False) == [0, 1]


def test_major_scan_includes_oldgen(table):
    table.set_state(0, CardState.DIRTY)
    table.set_state(2, CardState.OLD_GEN)
    assert table.cards_to_scan(major=True) == [0, 2]


def test_card_range(table):
    lo, hi = table.card_range(1)
    assert lo == BASE + 8 * KiB
    assert hi == BASE + 16 * KiB


def test_out_of_range_address(table):
    with pytest.raises(ValueError):
        table.card_index(BASE - 1)


def test_stripe_of_card(table):
    assert table.stripe_of_card(0) == 0
    assert table.stripe_of_card(8) == 1


def test_clear_range(table):
    table.set_state(0, CardState.DIRTY)
    table.set_state(1, CardState.OLD_GEN)
    table.clear_range(BASE, BASE + 16 * KiB)
    assert table.state(0) is CardState.CLEAN
    assert table.state(1) is CardState.CLEAN


def test_scan_parallelism(table):
    assert table.scan_parallelism(4) == 4
    assert table.scan_parallelism(1000) == table.num_stripes


def test_stripe_alignment_validation():
    with pytest.raises(ValueError):
        H2CardTable(BASE, 1 << 20, 8 * KiB, 12 * KiB)  # not a multiple


class TestBoundaryCardAblation:
    """stripe_aligned=False reproduces the vanilla JVM's sticky cards."""

    def make(self, aligned):
        return H2CardTable(
            BASE, 1 << 20, 8 * KiB, 64 * KiB, stripe_aligned=aligned
        )

    def test_aligned_boundary_cards_clean_normally(self):
        t = self.make(True)
        t.mark_dirty(BASE)  # card 0 is a stripe boundary
        t.set_state(0, CardState.CLEAN)
        assert t.state(0) is CardState.CLEAN

    def test_unaligned_boundary_cards_stay_dirty(self):
        t = self.make(False)
        t.mark_dirty(BASE)  # boundary card becomes sticky
        t.set_state(0, CardState.CLEAN)
        assert t.state(0) is CardState.DIRTY
        assert 0 in t.cards_to_scan(major=False)

    def test_unaligned_interior_cards_clean_fine(self):
        t = self.make(False)
        t.mark_dirty(BASE + 3 * 8 * KiB)  # interior card of stripe 0
        t.set_state(3, CardState.CLEAN)
        assert t.state(3) is CardState.CLEAN

    def test_clear_range_unsticks(self):
        t = self.make(False)
        t.mark_dirty(BASE)
        t.clear_range(BASE, BASE + 8 * KiB)
        assert t.state(0) is CardState.CLEAN
