"""Panthera baseline: the managed heap extended over DRAM + NVM.

Panthera (Wang et al., PLDI '19) places the young generation in DRAM and
splits the old generation between DRAM and NVM, pretenuring large
long-lived objects straight to the NVM component.  Crucially — and this is
why TeraHeap beats it by 7-69% (Section 7.5) — *every major GC still scans
and compacts all old-generation objects, including the NVM-resident
ones*, paying NVM latency per object, and mutators read/update
NVM-resident data directly.
"""

from __future__ import annotations

from typing import Optional

from ..clock import Clock
from ..config import VMConfig
from ..devices.base import AccessPattern, Device
from ..heap.heap import ManagedHeap
from ..heap.object_model import HeapObject, SpaceId
from ..heap.roots import RootSet
from ..heap.store import HeapStore
from ..units import KiB
from .parallel_scavenge import ParallelScavenge

#: bytes a marking visit touches on NVM (header + reference fields)
MARK_TOUCH_BYTES = 64
#: objects larger than this are pretenured straight to the NVM old gen
PRETENURE_THRESHOLD = 256 * KiB


class PantheraCollector(ParallelScavenge):
    """PS with the old generation split across DRAM and NVM."""

    name = "panthera"

    def __init__(
        self,
        heap: ManagedHeap,
        roots: RootSet,
        clock: Clock,
        config: VMConfig,
        store: HeapStore,
        nvm: Optional[Device] = None,
    ):
        super().__init__(heap, roots, clock, config, store)
        if config.panthera is None:
            raise ValueError("Panthera requires config.panthera")
        self.panthera = config.panthera
        self.nvm = nvm
        #: old-generation addresses at or beyond this sit on NVM
        self.nvm_boundary = heap.old.base + self.panthera.dram_old_size
        self.nvm_objects_scanned = 0
        self.nvm_objects_moved = 0

    # ------------------------------------------------------------------
    def on_nvm(self, obj: HeapObject) -> bool:
        return obj.space is SpaceId.OLD and obj.address >= self.nvm_boundary

    def on_mark_visit(self, obj: HeapObject) -> None:
        if self.nvm is not None and self.on_nvm(obj):
            # Marking chases headers and reference fields through every
            # record in the (coarse) simulated object, paying NVM latency
            # per paper-scale record — pointer chasing has no locality.
            records = max(1, obj.size // 2)
            self.nvm.read(
                obj.size // 4, AccessPattern.RANDOM, requests=records
            )
            self.nvm_objects_scanned += 1

    def on_compact_move(self, obj: HeapObject) -> None:
        if self.nvm is None:
            return
        src_nvm = self.on_nvm(obj)
        dst_nvm = obj.address >= self.nvm_boundary
        if dst_nvm or src_nvm:
            # Compaction traffic touching the NVM component.
            self.nvm.read(obj.size, AccessPattern.SEQUENTIAL)
            self.nvm.write(obj.size, AccessPattern.SEQUENTIAL)
            self.nvm_objects_moved += 1
