"""The regular managed heap (H1): generational layout + allocation."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..config import VMConfig
from ..errors import ConfigError
from .card_table import CardTable
from .object_model import SPACE_CODES, HeapObject, SpaceId
from .store import SPACE_TO, HeapStore
from .spaces import Space

#: base virtual address of H1 (H2 lives in a disjoint higher range)
H1_BASE = 0x1000_0000


class ManagedHeap:
    """H1: eden, two survivors and an old generation, plus the card table.

    Allocation follows Parallel Scavenge: mutators bump-allocate into eden;
    objects too large for eden go straight to the old generation
    (humongous/pretenured allocation).  The heap itself never collects —
    collectors in :mod:`repro.gc` drive it.
    """

    def __init__(self, config: VMConfig, store: HeapStore):
        self.config = config
        eden_size = config.eden_size
        survivor = config.survivor_size
        old_size = config.old_size
        if min(eden_size, survivor, old_size) <= 0:
            raise ConfigError(
                f"degenerate heap layout: eden={eden_size} survivor={survivor} "
                f"old={old_size}"
            )
        base = H1_BASE
        self.eden = Space(store, SpaceId.EDEN, base, eden_size)
        base += eden_size
        self.survivor_from = Space(store, SpaceId.FROM, base, survivor)
        base += survivor
        self.survivor_to = Space(store, SpaceId.TO, base, survivor)
        base += survivor
        self.old = Space(store, SpaceId.OLD, base, old_size)
        self.card_table = CardTable(
            self.old.base, old_size, config.card_segment_size
        )
        #: total objects ever allocated / promoted, for reporting
        self.allocated_objects = 0
        self.allocated_bytes = 0
        #: objects at/above this size allocate straight to the old gen
        #: (Panthera-style pretenuring); None keeps the default policy
        self.pretenure_threshold: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.config.heap_size

    @property
    def end(self) -> int:
        return self.old.end

    def spaces(self) -> List[Space]:
        return [self.eden, self.survivor_from, self.survivor_to, self.old]

    def used(self) -> int:
        return sum(s.used for s in self.spaces())

    # ------------------------------------------------------------------
    def _eden_max(self) -> int:
        """The largest object eden takes: anything larger, which eden
        could never hold or which is pretenured, goes to the old gen."""
        largest = self.eden.capacity // 2
        if self.pretenure_threshold is not None:
            largest = min(largest, self.pretenure_threshold - 1)
        return largest

    def try_allocate(self, obj: HeapObject) -> bool:
        """Place ``obj`` in eden (or old gen if eden could never hold it).

        Returns False when a minor GC is needed first.
        """
        target = self.old if obj.size > self._eden_max() else self.eden
        if target.allocate(obj.oid):
            obj.space = target.space_id
            self.allocated_objects += 1
            self.allocated_bytes += obj.size
            store = obj._store
            if target is self.old and any(
                store.space[t] <= SPACE_TO for t in store.refs[obj.oid]
            ):
                # Initializing stores of a pretenured object run the
                # write barrier too: without this mark the next scavenge
                # would miss the old-to-young root.
                self.card_table.mark(obj.address)
            return True
        return False

    def eden_room(self, sizes: Sequence[int], start: int = 0) -> int:
        """How many of ``sizes[start:]`` :meth:`try_allocate` would place
        back to back in eden, up to the first that does not fit or that
        goes to the old generation."""
        free, largest = self.eden.free, self._eden_max()
        for i in range(start, len(sizes)):
            size = sizes[i]
            if size > free or size > largest:
                return i - start
            free -= size
        return len(sizes) - start

    def allocate_run(self, first: int, sizes: Sequence[int]) -> None:
        """Place the fresh reference-free rows ``first``, ``first + 1``,
        ... of ``sizes`` in eden, as one :meth:`try_allocate` each
        would; at most :meth:`eden_room` of them."""
        self.eden.allocate_run(first, sizes)
        self.allocated_objects += len(sizes)
        self.allocated_bytes += sum(sizes)

    def swap_survivors(self) -> None:
        """Exchange from/to spaces after a scavenge."""
        self.survivor_from, self.survivor_to = (
            self.survivor_to,
            self.survivor_from,
        )
        self.survivor_from.space_id = SpaceId.FROM
        self.survivor_to.space_id = SpaceId.TO
        self.survivor_from.store.set_space_batch(
            self.survivor_from.oid_array(), SPACE_CODES[SpaceId.FROM]
        )

    def all_oids(self) -> np.ndarray:
        """Every oid the spaces hold, space by space in address order."""
        return np.concatenate([space.oid_array() for space in self.spaces()])
