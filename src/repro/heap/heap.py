"""The regular managed heap (H1): generational layout + allocation."""

from __future__ import annotations

from typing import List, Optional

from ..config import VMConfig
from ..errors import ConfigError
from .card_table import CardTable
from .object_model import SPACE_CODES, HeapObject, SpaceId
from .store import SPACE_TO
from .spaces import OldGeneration, Space

#: base virtual address of H1 (H2 lives in a disjoint higher range)
H1_BASE = 0x1000_0000


class ManagedHeap:
    """H1: eden, two survivors and an old generation, plus the card table.

    Allocation follows Parallel Scavenge: mutators bump-allocate into eden;
    objects too large for eden go straight to the old generation
    (humongous/pretenured allocation).  The heap itself never collects —
    collectors in :mod:`repro.gc` drive it.
    """

    def __init__(self, config: VMConfig):
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
        self.eden = Space(SpaceId.EDEN, base, eden_size, "eden")
        base += eden_size
        self.survivor_from = Space(SpaceId.FROM, base, survivor, "from")
        base += survivor
        self.survivor_to = Space(SpaceId.TO, base, survivor, "to")
        base += survivor
        self.old = OldGeneration(base, old_size)
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

    def contains_address(self, address: int) -> bool:
        return H1_BASE <= address < self.end

    def spaces(self) -> List[Space]:
        return [self.eden, self.survivor_from, self.survivor_to, self.old]

    def used(self) -> int:
        return sum(s.used for s in self.spaces())

    def live_occupancy(self) -> float:
        """Fraction of H1 occupied, the input to the threshold policy."""
        return self.used() / self.capacity

    # ------------------------------------------------------------------
    def try_allocate(self, obj: HeapObject) -> bool:
        """Place ``obj`` in eden (or old gen if eden could never hold it).

        Returns False when a minor GC is needed first.
        """
        large = obj.size > self.eden.capacity // 2
        if self.pretenure_threshold is not None:
            large = large or obj.size >= self.pretenure_threshold
        target = self.old if large else self.eden
        if target.allocate(obj):
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

    def swap_survivors(self) -> None:
        """Exchange from/to spaces after a scavenge."""
        self.survivor_from, self.survivor_to = (
            self.survivor_to,
            self.survivor_from,
        )
        self.survivor_from.space_id = SpaceId.FROM
        self.survivor_to.space_id = SpaceId.TO
        survivors = self.survivor_from.objects
        if survivors:
            survivors[0]._store.set_space_batch(
                self.survivor_from.oid_array(), SPACE_CODES[SpaceId.FROM]
            )

    def all_objects(self) -> List[HeapObject]:
        result: List[HeapObject] = []
        for space in self.spaces():
            result.extend(space.objects)
        return result
