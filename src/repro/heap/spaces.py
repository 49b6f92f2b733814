"""Bump-pointer extents: H1 spaces, and the block H2 and G1 regions share."""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from .object_model import SPACE_CODES, SpaceId


class Extent:
    """An address range ``[base, base + capacity)`` filled by a bump pointer.

    H1's eden, survivors and old generation, each H2 region (the paper's
    region array entry with its start/top pointers, Figure 2) and each G1
    region are this one block.  It holds the oids placed in it, in
    address order, in an ``array('q')`` that :meth:`oid_array` exports
    to numpy without a copy.  :meth:`reset` installs a fresh array, so an
    oid array handed out before a reset stays valid after it, and
    :meth:`renumber` rewrites the held oids in place, so one handed out
    since the last reset follows a store compaction.

    Placement writes each object's address; the space, region and label
    columns are the caller's to write.  Sorted addresses let card scans
    find the objects overlapping a card segment by binary search — the
    job a block-offset table does in a real card-table scan.
    """

    __slots__ = ("store", "base", "capacity", "top", "_oids", "_addresses")

    def __init__(self, store, base: int, capacity: int):
        if capacity < 0:
            raise ConfigError(f"extent capacity must be non-negative: {capacity}")
        self.store = store
        self.base = base
        self.capacity = capacity
        #: bump (allocation) pointer; back at ``base`` the extent is empty
        self.top = base
        self._oids = array("q")
        #: the held objects' addresses, built on the first overlap query
        #: after a placement
        self._addresses: Optional[np.ndarray] = None

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

    @property
    def is_empty(self) -> bool:
        return self.top == self.base

    def has_room(self, size: int) -> bool:
        return self.free >= size

    def __len__(self) -> int:
        """Number of objects held."""
        return len(self._oids)

    # ------------------------------------------------------------------
    def allocate(self, oid: int) -> bool:
        """Bump-allocate row ``oid``; returns False when it does not fit.

        Objects never span extents (H2 regions, Section 3.4)."""
        size = self.store.size[oid]
        if not self.has_room(size):
            return False
        self.store.address[oid] = self.top
        self.top += size
        self._oids.append(oid)
        self._addresses = None
        return True

    def extend(self, oids: Sequence[int], top: int) -> None:
        """Append oids the caller placed in order, ending at ``top``."""
        if isinstance(oids, np.ndarray):
            self._oids.frombytes(oids.astype(np.int64).tobytes())
        else:
            self._oids.extend(oids)
        self.top = top
        self._addresses = None

    def place_many(self, oids: np.ndarray) -> int:
        """Bump-place the rows ``oids``, in order, until one does not
        fit; returns how many were placed.

        The placed prefix ends up as one :meth:`allocate` per object
        would leave it; the rest of ``oids`` is untouched.
        """
        if not len(oids):
            return 0
        store = self.store
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
        self.extend(placed, int(ends[-1]))
        return count

    def reset(self) -> None:
        """Empty the extent; the held rows are the caller's to free."""
        self.top = self.base
        self._oids = array("q")
        self._addresses = None

    def renumber(self, new_of: np.ndarray) -> None:
        """Rewrite the held oids through the old -> new oid map of
        :meth:`HeapStore.compact`, in place."""
        oids = self.oid_array()
        if oids.size:
            oids[:] = new_of[oids]

    # ------------------------------------------------------------------
    def oid_array(self) -> np.ndarray:
        """The held oids in address order (a view: no copy)."""
        return np.frombuffer(self._oids, dtype=np.int64)

    def oids_overlapping(
        self, los: Sequence[int], his: Sequence[int]
    ) -> List[List[int]]:
        """For each range ``[los[i], his[i])``, the oids of the objects
        whose extent intersects it, in address order.

        One ``searchsorted`` pair over the address index brackets every
        range's candidates, and one numpy pass keeps those that overlap.
        """
        if not len(los):
            return []
        if self._addresses is None:
            self._addresses = self.store.address_view()[self.oid_array()]
        addrs = self._addresses
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        # First candidate: the object starting at or before lo; the last:
        # the one before the first object starting at or past hi.
        starts = np.maximum(np.searchsorted(addrs, los, side="right") - 1, 0)
        stops = np.searchsorted(addrs, his, side="left")
        counts = np.maximum(stops - starts, 0)
        ends = np.cumsum(counts)
        firsts = ends - counts
        span_of = np.repeat(np.arange(counts.size), counts)
        oids = self.oid_array()[
            np.arange(span_of.size) - (firsts - starts)[span_of]
        ]
        address = self.store.address_view()[oids]
        keep = (address < his[span_of]) & (
            address + self.store.size_view()[oids] > los[span_of]
        )
        kept = np.concatenate(([0], np.cumsum(keep)))
        found = oids[keep].tolist()
        return [
            found[a:b]
            for a, b in zip(kept[firsts].tolist(), kept[ends].tolist())
        ]


class Space(Extent):
    """An H1 space: eden, a survivor, or the old generation."""

    __slots__ = ("space_id", "name")

    def __init__(self, store, space_id: SpaceId, base: int, capacity: int):
        super().__init__(store, base, capacity)
        self.space_id = space_id
        #: fixed at construction: the survivors swap ids, not names
        self.name = space_id.value

    def allocate_run(self, first: int, sizes: Sequence[int]) -> None:
        """Bump-allocate the fresh rows ``first``, ``first + 1``, ... of
        ``sizes`` in one pass.

        The caller has checked that they fit; the result equals one
        :meth:`allocate` per object with the space code written.
        """
        count = len(sizes)
        addresses = array("q", accumulate(sizes, initial=self.top))
        top = addresses.pop()
        self.store.address[first:first + count] = addresses
        self.store.space[first:first + count] = (
            array("b", [SPACE_CODES[self.space_id]]) * count
        )
        self.extend(range(first, first + count), top)

    def rebuild_after_compaction(self, oids: np.ndarray, top: int) -> None:
        """Install the post-compaction contents: ``oids`` in address
        order, ending at ``top``."""
        self.reset()
        self.extend(oids, top)
