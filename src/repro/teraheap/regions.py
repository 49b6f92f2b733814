"""H2 regions and their DRAM-resident metadata (Section 3.3, Figure 2).

H2 is organised in virtual memory as fixed-size regions, each hosting an
object group with a similar lifetime.  All region metadata lives in DRAM:
a region array with start/top pointers and a live bit, plus a per-region
dependency list whose nodes each point at a (different) region referenced
by this region's objects.  Space is reclaimed *lazily*, a whole region at
a time — no object is ever compacted on the device.
"""

from __future__ import annotations

from typing import Optional, Set

from ..errors import ConfigError
from ..heap.spaces import Extent
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


class Region(Extent):
    """One H2 region plus its DRAM metadata entry.

    The extent is the region array entry's start (``base``) and top
    pointers; the rest is the metadata Figure 2 adds to it.
    """

    __slots__ = ("index", "live", "label", "deps", "allocated_epoch")

    def __init__(self, store, index: int, base: int, capacity: int):
        super().__init__(store, base, capacity)
        self.index = index
        #: live bit: region reachable from H1 this major GC (Section 3.3)
        self.live = False
        #: label of the object group placed here (regions are label-homogeneous
        #: so whole groups die together)
        self.label: Optional[str] = None
        #: dependency list: indices of regions referenced by objects here.
        #: The paper keeps direction — this set holds *outgoing* edges;
        #: under the "groups" policy it holds incoming edges too.
        self.deps: Set[int] = set()
        self.allocated_epoch = 0

    def live_object_stats(self, mark_epoch: int) -> "RegionLiveness":
        """Live-object and live-space fractions (Figure 10 inputs).

        An H2 object counts as live when its region was reached this epoch;
        at the statistics level we use per-object reachability recorded by
        the collector (``mark_epoch``) to measure intra-region garbage the
        way the paper's Figure 10 does.
        """
        oids = self.oid_array()
        mask = self.store.epoch_view()[oids] >= mark_epoch
        return RegionLiveness(
            total_objects=len(oids),
            live_objects=int(mask.sum()),
            used_bytes=self.used,
            live_bytes=int(self.store.size_view()[oids][mask].sum()),
            capacity=self.capacity,
        )

    def reset(self) -> None:
        """Back to an empty, unlabelled region; the objects' store rows
        are the caller's to free."""
        super().reset()
        self.live = False
        self.label = None
        self.deps = set()


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
