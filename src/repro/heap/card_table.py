"""The H1 card table: dirty-card tracking for old-to-young references.

The vanilla JVM divides the old generation into 512 B card segments with a
byte per card; the post-write barrier dirties the card of any updated old
object, and minor GC scans dirty cards for old-to-young roots (Section 2,
Section 4).
"""

from __future__ import annotations

from typing import Iterator, Sequence, Set, Tuple

import numpy as np


class CardTable:
    """Card table over a contiguous address range.

    Only non-clean cards are stored (a ``set``), matching the sparse access
    pattern; the *size* of the conceptual table (``num_cards``) still
    drives scan cost.
    """

    def __init__(self, base: int, size: int, card_size: int = 512):
        if card_size <= 0:
            raise ValueError("card size must be positive")
        self.base = base
        self.size = size
        self.card_size = card_size
        self.num_cards = (size + card_size - 1) // card_size
        self._dirty: Set[int] = set()

    # ------------------------------------------------------------------
    def card_index(self, address: int) -> int:
        if not self.base <= address < self.base + self.size:
            raise ValueError(
                f"address {address:#x} outside card table range "
                f"[{self.base:#x}, +{self.size})"
            )
        return (address - self.base) // self.card_size

    def card_range(self, index: int) -> Tuple[int, int]:
        """Address range [lo, hi) covered by card ``index``."""
        lo = self.base + index * self.card_size
        return lo, min(lo + self.card_size, self.base + self.size)

    # ------------------------------------------------------------------
    def mark(self, address: int) -> None:
        """Dirty the card covering ``address`` (post-write barrier)."""
        self._dirty.add(self.card_index(address))

    def mark_many(self, addresses: Sequence[int]) -> None:
        """Dirty the cards one :meth:`mark` per address would, each
        distinct card once.  The addresses before the first one outside
        the table are marked; that one raises :meth:`mark`'s error."""
        offsets = np.asarray(addresses, dtype=np.int64) - self.base
        outside = (offsets < 0) | (offsets >= self.size)
        stop = int(outside.argmax()) if outside.any() else len(offsets)
        cards = np.unique(offsets[:stop] // self.card_size)
        self._dirty.update(cards.tolist())
        if stop < len(offsets):
            self.card_index(int(addresses[stop]))

    def is_dirty(self, index: int) -> bool:
        return index in self._dirty

    def clear(self, index: int) -> None:
        self._dirty.discard(index)

    def clear_all(self) -> None:
        self._dirty.clear()

    def dirty_cards(self) -> Iterator[int]:
        """Dirty card indices in address order."""
        return iter(sorted(self._dirty))

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    # ------------------------------------------------------------------
    def dirty_index_array(self) -> np.ndarray:
        """Dirty card indices as a sorted array (batch coverage checks)."""
        return np.fromiter(
            sorted(self._dirty), dtype=np.int64, count=len(self._dirty)
        )

    def covered_mask(self, first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """For card ranges [first[i], last[i]] return whether any card in
        each range is dirty — the vectorized form of the audit's
        old-to-young coverage probe.  Ranges are typically one card wide
        (object < card size), so the wide-range tail loops."""
        dirty = self.dirty_index_array()
        out = np.zeros(len(first), dtype=bool)
        if not dirty.size or not len(first):
            return out
        single = first == last
        out[single] = np.isin(first[single], dirty)
        for i in np.nonzero(~single)[0]:
            lo = np.searchsorted(dirty, first[i], side="left")
            out[i] = lo < dirty.size and dirty[lo] <= last[i]
        return out
