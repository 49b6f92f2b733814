"""The Giraph out-of-core (OOC) scheduler — the paper's baseline mode.

Giraph monitors memory pressure in the managed heap and moves vertices,
edges and messages off-heap to the storage device, selecting victims with
an LRU-ish policy (Section 5).  Because Giraph already keeps these as
serialized byte arrays, offloading needs no S/D — just device writes — but
every later access pays a device read and re-allocates the data on-heap,
and the reloaded bytes immediately count as heap pressure again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ...clock import Bucket
from ...devices.page_cache import PageCache

if TYPE_CHECKING:  # pragma: no cover
    from .job import GiraphJob

#: heap-occupancy fraction at which the OOC scheduler offloads
OOC_THRESHOLD = 0.72


class OOCScheduler:
    """Heap-pressure-driven offloading of edge arrays and message stores.

    Out-of-core I/O goes through the kernel page cache (the DR2 slice of
    DRAM, Table 4), so recently offloaded or reloaded data is often served
    from memory rather than the device.
    """

    def __init__(self, job: "GiraphJob"):
        self.job = job
        self.threshold = OOC_THRESHOLD
        device = job.conf.device
        self.cache = (
            PageCache(device, job.vm.config.page_cache_size)
            if device is not None
            else None
        )
        self._next_offset = 0
        self._offsets = {}
        #: bytes dropped from the heap since the last collection; the heap
        #: accountant only sees them disappear at the next GC, so the
        #: scheduler keeps its own estimate to avoid offloading everything
        self.dropped_estimate = 0
        self.offload_events = 0
        self.bytes_offloaded = 0
        self.bytes_reloaded = 0
        self._victim_cursor = 0
        #: collection count at the last occupancy check
        self._seen_cycles = -1

    # ------------------------------------------------------------------
    def effective_occupancy(self) -> float:
        vm = self.job.vm
        # A collection actually reclaims dropped objects; reset the
        # estimate whenever one has run since the last check.
        cycles = len(vm.collector.stats.cycles)
        if cycles != self._seen_cycles:
            self._seen_cycles = cycles
            self.dropped_estimate = 0
        used = max(vm.heap.used() - self.dropped_estimate, 0)
        return used / vm.heap.capacity

    def note_gc(self) -> None:
        self.dropped_estimate = 0

    def room(self, grown: Sequence[int], shrunk: Sequence[int]) -> int:
        """How many of the upcoming :meth:`maybe_offload` checks would
        find occupancy at or below the threshold and return at once.

        Check ``k`` sees ``heap.used()`` grown by ``grown[k]`` bytes and
        :attr:`dropped_estimate` lowered by ``shrunk[k]`` bytes, both
        counted from now; the estimate clamps at 0, as each reload's
        decrement does.  A collection since the last check resets the
        estimate first, as :meth:`effective_occupancy` does.  Each check
        is :meth:`effective_occupancy`'s own expression.  Changes no
        state: :meth:`pass_checks` records the checks once they ran.
        """
        vm = self.job.vm
        estimate = self.dropped_estimate
        if len(vm.collector.stats.cycles) != self._seen_cycles:
            estimate = 0
        used, capacity = vm.heap.used(), vm.heap.capacity
        threshold = self.threshold
        for k in range(len(grown)):
            dropped = max(estimate - shrunk[k], 0)
            if max(used + grown[k] - dropped, 0) / capacity > threshold:
                return k
        return len(grown)

    def pass_checks(self, dropped: int) -> None:
        """Leave the state of :meth:`maybe_offload` checks that
        :meth:`room` passed, with reloads between them that took
        ``dropped`` bytes off the estimate.  The first check comes
        before any reload, so only it can reset the estimate after a
        collection."""
        self.effective_occupancy()
        self.dropped_estimate = max(0, self.dropped_estimate - dropped)

    # ------------------------------------------------------------------
    def maybe_offload(self) -> None:
        """Offload partitions' edge arrays until pressure subsides."""
        if self.effective_occupancy() <= self.threshold:
            return
        job = self.job
        partitions = len(job.resident_edges)  # one set per partition
        target = self.threshold - 0.05
        for _ in range(partitions):
            if self.effective_occupancy() <= target:
                break
            pid = self._victim_cursor % partitions
            self._victim_cursor += 1
            if pid == job.current_partition:
                continue  # never evict the partition being computed
            freed, to_write = job.offload_partition_edges(pid)
            self.device_write(("part", pid), to_write)
            self.dropped_estimate += freed
            self.bytes_offloaded += freed
            if freed:
                self.offload_events += 1
        if self.effective_occupancy() > self.threshold:
            # Edges alone were not enough: push the incoming message store
            # out-of-core as well (Giraph offloads messages too).
            freed = job.offload_incoming_messages()
            if freed:
                self.device_write(("msgs", job.supersteps_run), freed)
                self.dropped_estimate += freed
                self.bytes_offloaded += freed
                self.offload_events += 1
        if self.effective_occupancy() > self.threshold:
            # Last resort: offload whole vertex partitions (Table 2 —
            # Giraph's OOC handles vertices, edges and messages).
            for _ in range(partitions):
                if self.effective_occupancy() <= target:
                    break
                pid = self._victim_cursor % partitions
                self._victim_cursor += 1
                if pid == job.current_partition:
                    continue
                freed, to_write = job.offload_vertices(pid)
                self.device_write(("vparts", pid), to_write)
                self.dropped_estimate += freed
                self.bytes_offloaded += freed
                if freed:
                    self.offload_events += 1

    # ------------------------------------------------------------------
    def _pages(self, key, nbytes: int):
        """Stable page range in the out-of-core file for ``key``."""
        offset = self._offsets.get(key)
        if offset is None:
            offset = self._next_offset
            self._offsets[key] = offset
            self._next_offset += nbytes
        page = self.cache.page_size
        return range(offset // page, (offset + max(nbytes, 1) - 1) // page + 1)

    def device_write(self, key, nbytes: int) -> None:
        """Offload ``nbytes`` under ``key`` through the page cache."""
        if self.cache is None or nbytes <= 0:
            return
        with self.job.vm.clock.context(Bucket.SD_IO):
            self.cache.write_through(self._pages(key, nbytes))

    def reload(self, nbytes: int, key=None) -> None:
        """Charge an on-demand reload of offloaded data."""
        if self.cache is not None and nbytes > 0:
            with self.job.vm.clock.context(Bucket.SD_IO):
                if key is not None:
                    self.cache.access(self._pages(key, nbytes))
                else:
                    self.job.conf.device.read(nbytes)
        self.bytes_reloaded += nbytes

    def reload_many(self, sizes: Sequence[int], keys: Sequence) -> None:
        """One :meth:`reload` ``(sizes[i], keys[i])`` per entry, in order,
        inside one clock context.

        Each span goes through :meth:`PageCache.access` rather than one
        :meth:`PageCache.access_many` batch: about a third of these
        pages hit, and on hit-heavy spans the per-span path is faster
        (one giraph-ooc-cdlp job's reloads replayed on a 2-vCPU x86
        host: 0.28-0.32 s per span, 0.39-0.40 s batched).
        """
        cache = self.cache
        if cache is not None:
            pages = self._pages
            with self.job.vm.clock.context(Bucket.SD_IO):
                for nbytes, key in zip(sizes, keys):
                    if nbytes > 0:
                        cache.access(pages(key, nbytes))
        self.bytes_reloaded += sum(sizes)
