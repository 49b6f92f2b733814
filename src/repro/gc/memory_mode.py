"""Spark-MO baseline: the whole heap on NVM in Memory mode (Section 7.5).

Intel Optane Memory mode makes NVM the main memory with DRAM acting as a
hardware-managed, placement-agnostic cache.  The JVM heap — including the
young generation — lands on NVM, so the collector pays NVM latency on GC
scans and copies whenever the DRAM cache misses.  The paper measures
minor GC +36% vs Spark-SD and 5.3x/11.8x more NVM reads/writes than
TeraHeap — the price of leaving placement to the memory controller.
"""

from __future__ import annotations

from ..clock import Clock
from ..config import VMConfig
from ..devices.base import AccessPattern
from ..devices.nvm import NVMMemoryMode
from ..heap.heap import ManagedHeap
from ..heap.object_model import HeapObject
from ..heap.roots import RootSet
from ..heap.store import HeapStore
from .parallel_scavenge import ParallelScavenge

#: bytes a marking visit touches (header + reference fields)
MARK_TOUCH_BYTES = 64


class MemoryModeCollector(ParallelScavenge):
    """PS with every heap access blended through the NVM memory-mode cache."""

    name = "ps-memmode"

    def __init__(
        self,
        heap: ManagedHeap,
        roots: RootSet,
        clock: Clock,
        config: VMConfig,
        store: HeapStore,
        device: NVMMemoryMode,
    ):
        super().__init__(heap, roots, clock, config, store)
        self.device = device

    def _refresh_working_set(self) -> None:
        # The DRAM cache competes with everything resident on the heap.
        self.device.working_set = self.heap.used()

    def on_mark_visit(self, obj: HeapObject) -> None:
        # Pointer chasing through every record of the coarse object pays
        # the blended latency per paper-scale record.
        records = max(1, obj.size // 2)
        self.device.gc_read(obj.size // 4, requests=records)

    def on_compact_move(self, obj: HeapObject) -> None:
        self.device.gc_read(obj.size, AccessPattern.SEQUENTIAL)
        self.device.gc_write(obj.size, AccessPattern.SEQUENTIAL)

    def on_minor_copy(self, obj: HeapObject) -> None:
        # Young objects live on NVM too: scavenge copies pay the blend.
        self.device.gc_read(obj.size)
        self.device.gc_write(obj.size)

    def minor_gc(self):
        self._refresh_working_set()
        return super().minor_gc()

    def major_gc(self):
        self._refresh_working_set()
        return super().major_gc()
