"""A steppable cached-analytics workload for co-located tenants.

The server scheduler interleaves tenants at *step* granularity (one
batch of chunk allocations + compute + cache re-reads), so workloads
must expose incremental progress rather than a monolithic ``run()``.
The shape mirrors the paper's iterative cached analytics (Section 7):
each iteration materialises a working set, tags it for H2, re-reads a
window of the previous iteration's cache (device traffic once the data
moved to H2), and drops iterations older than the sliding window.
"""

from __future__ import annotations

from typing import Dict, List

from ..devices.base import AccessPattern
from ..heap.object_model import HeapObject
from ..units import KiB

#: bytes per cached chunk
CHUNK_SIZE = 8 * KiB
#: cached iterations a tenant runs
ITERATIONS = 3
#: chunks one step allocates
BATCH_CHUNKS = 16
#: share of a step's chunks re-read from the previous iteration's cache
REREAD_FRACTION = 1.0
#: mutator operations per allocated chunk
COMPUTE_OPS_PER_CHUNK = 16


class CachedAnalyticsWorkload:
    """Iterative job: materialise, cache on H2, re-read, slide window.

    Deterministic by construction — the re-read sample is a fixed
    stride over the previous iteration's chunk list, no RNG anywhere —
    so two runs of the same box produce byte-identical schedules.
    """

    def __init__(self, vm, name: str, dataset_bytes: int):
        self.vm = vm
        self.name = name
        self.chunks_total = max(1, dataset_bytes // CHUNK_SIZE)
        self._iteration = 0
        self._cursor = 0
        self._anchors: Dict[int, HeapObject] = {}
        self._cached: Dict[int, List[HeapObject]] = {}
        self.done = False
        self.processed_bytes = 0
        self.steps = 0

    # ------------------------------------------------------------------
    def _label(self, iteration: int) -> str:
        return f"{self.name}-it{iteration}"

    def _begin_iteration(self) -> None:
        vm = self.vm
        anchor = vm.allocate(64, name=self._label(self._iteration))
        vm.roots.add(anchor)
        vm.h2_tag_root(anchor, self._label(self._iteration))
        self._anchors[self._iteration] = anchor
        self._cached[self._iteration] = []

    def _end_iteration(self) -> None:
        vm = self.vm
        vm.h2_move(self._label(self._iteration))
        # Slide the cache window: iteration i-2 is no longer needed.
        stale = self._iteration - 2
        if stale in self._anchors:
            anchor = self._anchors.pop(stale)
            vm.roots.remove(anchor)
            self._cached.pop(stale, None)
        # Job boundary: a full GC moves the tagged working set to H2 and
        # reclaims the dropped iteration's regions (the explicit System.gc()
        # Spark jobs issue between stages when offheap caching is on).
        vm.major_gc()
        self._iteration += 1
        self._cursor = 0
        if self._iteration >= ITERATIONS:
            self.done = True

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Process one batch; advances the tenant's clock."""
        if self.done:
            return
        vm = self.vm
        if self._cursor == 0:
            self._begin_iteration()
        anchor = self._anchors[self._iteration]
        cache = self._cached[self._iteration]
        batch = min(BATCH_CHUNKS, self.chunks_total - self._cursor)
        vm.stall_for_capacity(batch * CHUNK_SIZE)
        for _ in range(batch):
            obj = vm.allocate(CHUNK_SIZE)
            vm.write_ref(anchor, obj)
            cache.append(obj)
        vm.compute(batch * COMPUTE_OPS_PER_CHUNK)
        # Re-read a window of the previous iteration's cache.  Once that
        # iteration moved to H2, these are device reads through the
        # shared page cache — the traffic the bandwidth arbiter carves.
        prev = self._cached.get(self._iteration - 1)
        if prev:
            rereads = max(1, int(batch * REREAD_FRACTION))
            for j in range(rereads):
                obj = prev[(self.steps * 7 + j * 13) % len(prev)]
                vm.read_object(obj, AccessPattern.RANDOM)
        self._cursor += batch
        self.processed_bytes += batch * CHUNK_SIZE
        self.steps += 1
        if self._cursor >= self.chunks_total:
            self._end_iteration()
