"""Heap spaces: contiguous address ranges with bump-pointer allocation."""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from .object_model import SPACE_CODES, HeapObject, SpaceId


class Space:
    """A contiguous space: eden, a survivor, the old gen, or a G1 region.

    Objects are placed with a bump pointer, so ``objects`` stays sorted by
    address, which lets card scans locate the objects overlapping a card
    segment with binary search — the same trick real card-table scanning
    relies on (objects-per-card lookup via block-offset tables).  The
    address index is kept as a numpy array so overlap queries and audit
    sweeps run as vector ops over the store's columns.
    """

    def __init__(self, space_id: SpaceId, base: int, capacity: int, name: str = ""):
        if capacity < 0:
            raise ConfigError(f"space capacity must be non-negative: {capacity}")
        self.space_id = space_id
        self.base = base
        self.capacity = capacity
        self.top = base
        self.objects: List[HeapObject] = []
        self.name = name or space_id.value
        self._addr_cache: Optional[np.ndarray] = None
        self._oid_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self.top - self.base

    @property
    def free(self) -> int:
        return self.capacity - self.used

    @property
    def occupancy(self) -> float:
        return self.used / self.capacity if self.capacity else 1.0

    @property
    def end(self) -> int:
        return self.base + self.capacity

    def has_room(self, size: int) -> bool:
        return self.free >= size

    # ------------------------------------------------------------------
    def allocate(self, obj: HeapObject) -> bool:
        """Bump-allocate ``obj``; returns False when the space is full."""
        if not self.has_room(obj.size):
            return False
        obj.address = self.top
        obj.space = self.space_id
        self.top += obj.size
        self.objects.append(obj)
        self._addr_cache = None
        self._oid_cache = None
        return True

    def allocate_run(
        self, objs: List[HeapObject], sizes: Sequence[int]
    ) -> None:
        """Bump-allocate fresh objects of ``sizes`` in one pass.

        ``objs`` are consecutive store rows and the caller has checked
        that they fit; the result equals one :meth:`allocate` per object.
        """
        count = len(objs)
        store = objs[0]._store
        first = objs[0].oid
        addresses = array("q", accumulate(sizes, initial=self.top))
        self.top = addresses.pop()
        store.address[first:first + count] = addresses
        store.space[first:first + count] = (
            array("b", [SPACE_CODES[self.space_id]]) * count
        )
        self.objects.extend(objs)
        self._addr_cache = None
        self._oid_cache = None

    def place_many(self, store, oids: np.ndarray) -> int:
        """Bump-place the existing rows ``oids``, in order, until one
        does not fit; returns how many were placed.

        The placed prefix ends up as one :meth:`allocate` per object
        would leave it (addresses, space codes, ``objects``, ``top``);
        the rest of ``oids`` is untouched.
        """
        if not len(oids):
            return 0
        ends = np.cumsum(store.size_view()[oids]) + self.top
        count = int(np.searchsorted(ends, self.end, side="right"))
        if not count:
            return 0
        placed = oids[:count]
        ends = ends[:count]
        starts = np.empty_like(ends)
        starts[0] = self.top
        starts[1:] = ends[:-1]
        store.address_view()[placed] = starts
        store.space_view()[placed] = SPACE_CODES[self.space_id]
        self.objects.extend(map(store.handle, placed.tolist()))
        self.top = int(ends[-1])
        if self._addr_cache is not None:
            self._addr_cache = np.concatenate((self._addr_cache, starts))
        if self._oid_cache is not None:
            self._oid_cache = np.concatenate((self._oid_cache, placed))
        return count

    def reset(self) -> None:
        """Empty the space (end of scavenge for eden/from-space)."""
        self.top = self.base
        self.objects.clear()
        self._addr_cache = None
        self._oid_cache = None

    def live_bytes(self) -> int:
        if not self.objects:
            return 0
        store = self.objects[0]._store
        return store.sum_sizes(self.oid_array())

    # ------------------------------------------------------------------
    def _index(self) -> np.ndarray:
        if self._addr_cache is None:
            self._addr_cache = np.fromiter(
                (o.address for o in self.objects),
                dtype=np.int64,
                count=len(self.objects),
            )
        return self._addr_cache

    def oid_array(self) -> np.ndarray:
        """The space's oids in address order (batch-kernel input)."""
        if self._oid_cache is None:
            self._oid_cache = np.fromiter(
                (o.oid for o in self.objects),
                dtype=np.int64,
                count=len(self.objects),
            )
        return self._oid_cache

    def oids_overlapping(self, lo: int, hi: int) -> List[int]:
        """Oids of the objects whose extent intersects [lo, hi), in
        address order."""
        if not self.objects:
            return []
        addrs = self._index()
        # First object that could overlap: the one starting at or before lo.
        start = int(np.searchsorted(addrs, lo, side="right")) - 1
        if start < 0:
            start = 0
        stop = int(np.searchsorted(addrs, hi, side="left")) + 1
        store = self.objects[0]._store
        address = store.address
        size = store.size
        # The handles' oids, not oid_array(): the old generation would
        # otherwise keep a second whole-space cache alive between GCs.
        oids = [obj.oid for obj in self.objects[start:stop]]
        return [
            oid
            for oid in oids
            if address[oid] < hi and address[oid] + size[oid] > lo
        ]


class OldGeneration(Space):
    """The old generation, with an index of objects by card for barrier scans."""

    def __init__(self, base: int, capacity: int):
        super().__init__(SpaceId.OLD, base, capacity, name="old")

    def rebuild_after_compaction(
        self,
        survivors: List[HeapObject],
        oids: Optional[np.ndarray] = None,
        addresses: Optional[np.ndarray] = None,
    ) -> None:
        """Install the post-compaction object list (already address-sorted).

        ``oids`` and ``addresses``, when the caller has them, are the
        survivors' oids and new addresses in the same order; they seed
        the index caches so the next sweep need not rebuild them.
        """
        self.objects = survivors
        self.top = survivors[-1].end_address() if survivors else self.base
        self._addr_cache = addresses
        self._oid_cache = oids
