"""The H2 card table: four states, slices and stripes (Section 3.4).

A byte array in DRAM with one entry per fixed-size H2 card segment.  Each
entry is one of four states:

- **clean** — no backward references in the segment;
- **dirty** — a mutator thread updated an object in the segment;
- **youngGen** — the segment's objects reference only H1 young objects;
- **oldGen** — the segment's objects reference only H1 old objects.

Minor GC scans dirty + youngGen cards; major GC additionally scans oldGen
cards.  H2 is divided into slices, each containing one fixed-size stripe
per GC thread, so threads never contend on a card.  Because TeraHeap
aligns objects to stripes (stripe size == region size, and objects never
span regions), no boundary card ever needs to stay permanently dirty —
unlike the vanilla H1 card table.  The ``stripe_aligned=False`` ablation
reproduces the vanilla behaviour.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Set, Tuple


class CardState(enum.Enum):
    CLEAN = 0
    DIRTY = 1
    YOUNG_GEN = 2
    OLD_GEN = 3


class H2CardTable:
    """Sparse four-state card table over the H2 address range."""

    def __init__(
        self,
        base: int,
        size: int,
        segment_size: int,
        stripe_size: int,
        stripe_aligned: bool = True,
    ):
        if segment_size <= 0 or stripe_size <= 0:
            raise ValueError("segment and stripe sizes must be positive")
        if stripe_size % segment_size:
            raise ValueError(
                f"stripe size {stripe_size} not a multiple of card segment "
                f"size {segment_size}"
            )
        self.base = base
        self.size = size
        self.segment_size = segment_size
        self.stripe_size = stripe_size
        self.stripe_aligned = stripe_aligned
        self.num_cards = (size + segment_size - 1) // segment_size
        self.cards_per_stripe = stripe_size // segment_size
        self.num_stripes = (size + stripe_size - 1) // stripe_size
        #: non-clean entries only (the conceptual table is num_cards bytes)
        self._states: Dict[int, CardState] = {}
        #: boundary cards that can never be cleaned (ablation mode only)
        self._sticky: Set[int] = set()
        self.mutator_marks = 0

    # ------------------------------------------------------------------
    def card_index(self, address: int) -> int:
        if not self.base <= address < self.base + self.size:
            raise ValueError(f"address {address:#x} outside H2 card table")
        return (address - self.base) // self.segment_size

    def card_range(self, index: int) -> Tuple[int, int]:
        lo = self.base + index * self.segment_size
        return lo, min(lo + self.segment_size, self.base + self.size)

    def stripe_of_card(self, index: int) -> int:
        return index // self.cards_per_stripe

    def _is_boundary(self, index: int) -> bool:
        within = index % self.cards_per_stripe
        return within == 0 or within == self.cards_per_stripe - 1

    # ------------------------------------------------------------------
    def mark_dirty(self, address: int) -> None:
        """Post-write barrier hook: mutator updated an H2 object."""
        index = self.card_index(address)
        self._states[index] = CardState.DIRTY
        self.mutator_marks += 1
        if not self.stripe_aligned and self._is_boundary(index):
            self._sticky.add(index)

    def state(self, index: int) -> CardState:
        if index in self._sticky:
            return CardState.DIRTY
        return self._states.get(index, CardState.CLEAN)

    def set_state(self, index: int, state: CardState) -> None:
        """Install the post-scan classification of a card segment.

        Sticky boundary cards (ablation mode) refuse to be cleaned: two GC
        threads may touch them, so the vanilla JVM never cleans them and
        rescans the segment every GC (Section 3.4).
        """
        if index in self._sticky:
            return
        if state is CardState.CLEAN:
            self._states.pop(index, None)
        else:
            self._states[index] = state

    # ------------------------------------------------------------------
    def cards_to_scan(self, major: bool) -> List[int]:
        """Card indices a GC must scan, in address order.

        Minor GC scans dirty and youngGen cards; major GC also scans
        oldGen cards, since a full collection relocates old objects too.
        """
        wanted = {CardState.DIRTY, CardState.YOUNG_GEN}
        if major:
            wanted.add(CardState.OLD_GEN)
        found = {
            idx for idx, st in self._states.items() if st in wanted
        }
        found.update(self._sticky)
        return sorted(found)

    def iter_states(self) -> Iterator[Tuple[int, CardState]]:
        for idx in sorted(self._states):
            yield idx, self.state(idx)

    def clear_range(self, lo: int, hi: int) -> None:
        """Drop card state for a reclaimed region's address range."""
        first = (lo - self.base) // self.segment_size
        last = (hi - 1 - self.base) // self.segment_size
        for idx in range(first, last + 1):
            self._states.pop(idx, None)
            self._sticky.discard(idx)

    # ------------------------------------------------------------------
    def scan_parallelism(self, gc_threads: int) -> int:
        """Threads that can scan concurrently given the stripe layout."""
        return max(1, min(gc_threads, self.num_stripes))
