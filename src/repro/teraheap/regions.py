"""H2 regions and their DRAM-resident metadata (Section 3.3, Figure 2).

H2 is organised in virtual memory as fixed-size regions, each hosting an
object group with a similar lifetime.  All region metadata lives in DRAM:
a region array with start/top pointers and a live bit, plus a per-region
dependency list whose nodes each point at a (different) region referenced
by this region's objects.  Space is reclaimed *lazily*, a whole region at
a time — no object is ever compacted on the device.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

import numpy as np

from ..errors import ConfigError
from ..heap.object_model import HeapObject, SpaceId
from ..units import TiB

# Figure 2 metadata, sized per region (measured on the authors' struct
# layout so that Table 5 reproduces exactly):
#   region array entry: head/start/top pointers + live bit + padding  = 64 B
#   allocator state: label hash, object/byte counters, buffer pointer = 89 B
#   dependency list: ~10 nodes on average (Section 3.3) x 24 B        = 240 B
#   promotion-buffer descriptor                                       = 24 B
PER_REGION_METADATA_BYTES = 64 + 89 + 10 * 24 + 24  # = 417


def metadata_bytes_per_tb(region_size: int) -> int:
    """DRAM metadata per TB of H2 for a given region size (Table 5).

    ``region_size`` is given in *real* bytes (e.g. ``1 * MiB``); the result
    is the metadata footprint for one TiB of H2 space.
    """
    if region_size <= 0:
        raise ConfigError("region size must be positive")
    regions_per_tb = TiB // region_size
    return regions_per_tb * PER_REGION_METADATA_BYTES


class Region:
    """One H2 region plus its DRAM metadata entry."""

    __slots__ = (
        "index",
        "start",
        "capacity",
        "top",
        "live",
        "label",
        "deps",
        "objects",
        "allocated_epoch",
        "_addr_cache",
        "_oid_cache",
    )

    def __init__(self, index: int, start: int, capacity: int):
        self.index = index
        #: start pointer (Figure 2)
        self.start = start
        self.capacity = capacity
        #: top (allocation) pointer; reset to ``start`` frees the region
        self.top = start
        #: live bit: region reachable from H1 this major GC (Section 3.3)
        self.live = False
        #: label of the object group placed here (regions are label-homogeneous
        #: so whole groups die together)
        self.label: Optional[str] = None
        #: dependency list: indices of regions referenced by objects here.
        #: The paper keeps direction — this set holds *outgoing* edges;
        #: under the "groups" policy it holds incoming edges too.
        self.deps: Set[int] = set()
        self.objects: List[HeapObject] = []
        self.allocated_epoch = 0
        self._addr_cache: Optional[List[int]] = None
        self._oid_cache: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        return self.top - self.start

    @property
    def free_space(self) -> int:
        return self.capacity - self.used

    @property
    def end(self) -> int:
        return self.start + self.capacity

    @property
    def is_empty(self) -> bool:
        return self.top == self.start

    def contains_address(self, address: int) -> bool:
        return self.start <= address < self.end

    def has_room(self, size: int) -> bool:
        return self.free_space >= size

    # ------------------------------------------------------------------
    def allocate(self, obj: HeapObject) -> bool:
        """Append-only placement; objects never span regions (Section 3.4)."""
        if not self.has_room(obj.size):
            return False
        obj.address = self.top
        obj.space = SpaceId.H2
        obj.region_id = self.index
        self.top += obj.size
        self.objects.append(obj)
        self._addr_cache = None
        self._oid_cache = None
        return True

    def extend(self, objs: Iterable[HeapObject], top: int) -> None:
        """Append objects the caller placed in order, ending at ``top``."""
        self.objects.extend(objs)
        self.top = top
        self._addr_cache = None
        self._oid_cache = None

    def oid_array(self) -> np.ndarray:
        """The region's oids in allocation (= address) order."""
        if self._oid_cache is None:
            self._oid_cache = np.fromiter(
                (o.oid for o in self.objects),
                dtype=np.int64,
                count=len(self.objects),
            )
        return self._oid_cache

    def live_object_stats(self, mark_epoch: int) -> "RegionLiveness":
        """Live-object and live-space fractions (Figure 10 inputs).

        An H2 object counts as live when its region was reached this epoch;
        at the statistics level we use per-object reachability recorded by
        the collector (``mark_epoch``) to measure intra-region garbage the
        way the paper's Figure 10 does.
        """
        total = len(self.objects)
        if total:
            store = self.objects[0]._store
            oids = self.oid_array()
            mask = store.epoch_view()[oids] >= mark_epoch
            live = int(mask.sum())
            live_bytes = int(store.size_view()[oids][mask].sum())
        else:
            live = 0
            live_bytes = 0
        return RegionLiveness(
            total_objects=total,
            live_objects=live,
            used_bytes=self.used,
            live_bytes=live_bytes,
            capacity=self.capacity,
        )

    def clear(self) -> None:
        """Reset the metadata to an empty, unlabelled region; the objects'
        store rows are the caller's to free."""
        self.objects = []
        self.top = self.start
        self.live = False
        self.label = None
        self.deps = set()
        self._addr_cache = None
        self._oid_cache = None

    # ------------------------------------------------------------------
    def oids_overlapping(self, lo: int, hi: int) -> List[int]:
        """Oids of the objects intersecting [lo, hi), in address order —
        used by card-segment scans."""
        from bisect import bisect_left, bisect_right

        if not self.objects:
            return []
        if self._addr_cache is None:
            self._addr_cache = [o.address for o in self.objects]
        addrs = self._addr_cache
        start = max(bisect_right(addrs, lo) - 1, 0)
        stop = bisect_left(addrs, hi) + 1
        store = self.objects[0]._store
        address = store.address
        size = store.size
        oids = [obj.oid for obj in self.objects[start:stop]]
        return [
            oid
            for oid in oids
            if address[oid] < hi and address[oid] + size[oid] > lo
        ]


class RegionLiveness:
    """Per-region liveness statistics for the Figure 10 CDFs."""

    __slots__ = (
        "total_objects",
        "live_objects",
        "used_bytes",
        "live_bytes",
        "capacity",
    )

    def __init__(
        self,
        total_objects: int,
        live_objects: int,
        used_bytes: int,
        live_bytes: int,
        capacity: int,
    ):
        self.total_objects = total_objects
        self.live_objects = live_objects
        self.used_bytes = used_bytes
        self.live_bytes = live_bytes
        self.capacity = capacity

    @property
    def live_object_fraction(self) -> float:
        return self.live_objects / self.total_objects if self.total_objects else 0.0

    @property
    def live_space_fraction(self) -> float:
        return self.live_bytes / self.capacity if self.capacity else 0.0

    @property
    def unused_fraction(self) -> float:
        return 1.0 - self.used_bytes / self.capacity if self.capacity else 0.0
