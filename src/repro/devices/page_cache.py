"""Kernel page cache model: LRU cache of device pages in DR2 DRAM.

The paper's TeraHeap configurations reserve part of DRAM (DR2) for the
kernel page cache that backs H2's memory mapping (Section 6).  Workloads
with locality hit the cache; streaming workloads (Spark ML, Section 7.1)
miss continuously and run into the device-bandwidth ceiling.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Tuple

from ..errors import SimulatedCrash
from .base import AccessPattern, Device
from .durability import DurableImage


class PageCache:
    """LRU page cache in front of a block device.

    Pages are identified by integer page numbers.  Dirty pages are written
    back to the device on eviction (or via :meth:`flush`), modelling the
    kernel writeback path that turns scattered stores into device write
    traffic.

    Every write that reaches the device also lands in the
    :class:`~repro.devices.durability.DurableImage` — the device-side
    truth that survives a simulated kill.  Dirty pages in the cache are
    *not* durable until writeback.  When a :class:`FaultPlan` with crash
    scheduling is attached, batch writes consult it at named safepoints:
    a crash lands a seeded prefix of the batch, tears the page at the
    cut, and raises :class:`SimulatedCrash`.
    """

    def __init__(
        self,
        device: Device,
        capacity: int,
        page_size: int = 4096,
        fault_plan=None,
    ):
        if capacity < page_size:
            raise ValueError("page cache smaller than one page")
        self.device = device
        self.page_size = page_size
        self.max_pages = capacity // page_size
        #: page number -> dirty flag, in LRU order (oldest first)
        self._pages: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        #: device-side state that survives a simulated process kill
        self.durable_image = DurableImage(page_size)
        #: optional FaultPlan consulted at crash safepoints
        self.fault_plan = fault_plan
        #: optional ResilienceLog that crash events are recorded into
        self.resilience_log = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def _evict_over_limit(self) -> None:
        while len(self._pages) > self.max_pages:
            evicted, was_dirty = self._pages.popitem(last=False)
            self.evictions += 1
            if was_dirty:
                self.writebacks += 1
                self.device.write(self.page_size, AccessPattern.RANDOM)
                # A single-page eviction writeback is atomic at device
                # page granularity: it lands whole or not at all, so it
                # commits without a crash check.
                self.durable_image.commit((evicted,))

    def _insert(self, page: int, dirty: bool) -> None:
        self._pages[page] = dirty
        self._pages.move_to_end(page)
        self._evict_over_limit()

    def resize(self, capacity: int) -> int:
        """Re-carve this cache to ``capacity`` bytes; returns new max pages.

        The server layer's arbiter repartitions one box-wide DR2 budget
        across co-located tenants each epoch; shrinking evicts down to
        the new limit immediately (LRU order, dirty pages written back),
        growing just raises the ceiling.  The durable image is untouched
        — quota moves never cost a tenant its crash-recoverable state.
        """
        if capacity < self.page_size:
            raise ValueError("page cache smaller than one page")
        self.max_pages = capacity // self.page_size
        self._evict_over_limit()
        return self.max_pages

    # ------------------------------------------------------------------
    def _crash_cut(self, safepoint: str, npages: int):
        """Consult the fault plan for a kill at this batch-write safepoint."""
        if self.fault_plan is None:
            return None
        return self.fault_plan.crash_batch_cut(safepoint, npages)

    def _crash(self, safepoint: str, pages: List[int], cut: int) -> None:
        """Die mid-batch: the first ``cut`` pages landed, the page at the
        cut is torn, the rest never reached the device.  The device is
        charged for what it actually absorbed before the kill."""
        image = self.durable_image
        if cut > 0:
            runs = _count_runs(pages[:cut])
            self.device.write(cut * self.page_size, requests=runs)
            image.commit(pages[:cut])
        if cut < len(pages):
            # The torn page costs a device write too — it was in flight.
            self.device.write(self.page_size, AccessPattern.RANDOM)
            image.tear(pages[cut])
        image.drop_staged()
        op_index = self.fault_plan.op_index if self.fault_plan else -1
        if self.resilience_log is not None:
            self.resilience_log.record_crash(
                self.device.clock.now, safepoint, f"cut={cut}/{len(pages)}"
            )
        raise SimulatedCrash(
            f"simulated kill at safepoint {safepoint!r} "
            f"(cut={cut}/{len(pages)} pages landed)",
            safepoint=safepoint,
            op_index=op_index,
        )

    def _access_span(
        self, pages: Iterable[int], write: bool, pattern: AccessPattern
    ) -> Tuple[int, int]:
        """Touch one span of distinct pages; returns ``(hits, misses)``.

        Hits move to the LRU tail; the misses are fetched in one device
        read (one request per contiguous run), then inserted one by one,
        each insert evicting the oldest pages over the limit (dirty ones
        written back).  The hit/miss counters are left to the caller.
        """
        cached = self._pages
        hits = 0
        miss_pages = []
        for page in pages:
            if page in cached:
                hits += 1
                cached.move_to_end(page)
                if write:
                    cached[page] = True
            else:
                miss_pages.append(page)
        if miss_pages:
            self.device.read(
                len(miss_pages) * self.page_size,
                pattern,
                requests=_count_runs(miss_pages),
            )
            max_pages = self.max_pages
            for page in miss_pages:
                cached[page] = write
                # Evict before the next insert: a writeback that raises
                # must leave the later misses uncached.
                if len(cached) > max_pages:
                    self._evict_over_limit()
        return hits, len(miss_pages)

    def access(
        self,
        pages: Iterable[int],
        write: bool = False,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> Tuple[int, int]:
        """Touch ``pages`` (distinct); fetch misses from the device.

        Returns ``(hits, misses)``.  A write marks pages dirty; the write
        reaches the device later via writeback, not synchronously — which
        is why batched sequential writes (promotion buffers) are so much
        cheaper than random read-modify-writes.
        """
        hits, misses = self._access_span(pages, write, pattern)
        self.hits += hits
        self.misses += misses
        return hits, misses

    def access_many(
        self,
        spans: Iterable[Iterable[int]],
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> Tuple[int, int]:
        """Read each span in turn, exactly as one :meth:`access` per span.

        Returns the summed ``(hits, misses)``.  Meant for fault-free
        devices: under a fault plan, call :meth:`access` per span so a
        failed read leaves the spans before it counted.
        """
        span = self._access_span
        hits = misses = 0
        for pages in spans:
            span_hits, span_misses = span(pages, False, pattern)
            hits += span_hits
            misses += span_misses
        self.hits += hits
        self.misses += misses
        return hits, misses

    def write_through(self, pages: Iterable[int], safepoint: str = "h2_write") -> int:
        """Write pages straight to the device (explicit async I/O path).

        TeraHeap's promotion buffers bypass the fault path with explicit
        batched writes (Section 3.2); the pages also land in the cache
        clean, so an immediate read back hits DRAM.  ``safepoint`` names
        this batch for the crash scheduler: a kill here lands a prefix of
        the batch and raises :class:`SimulatedCrash`.
        """
        pages = list(pages)
        if not pages:
            return 0
        cut = self._crash_cut(safepoint, len(pages))
        if cut is not None:
            self._crash(safepoint, pages, cut)
        runs = _count_runs(pages)
        self.device.write(len(pages) * self.page_size, requests=runs)
        self.durable_image.commit(pages)
        for page in pages:
            self._insert(page, dirty=False)
        return len(pages)

    def write_metadata(self, pages: Iterable[int], safepoint: str) -> int:
        """Persist metadata pages (region headers, superblock) directly.

        Metadata pages use negative page numbers, disjoint from the data
        page space, and bypass the LRU — headers are tiny and their cost
        is the device write, not cache pressure.  Journal entries staged
        against these pages install when the write commits.
        """
        pages = sorted(pages)
        if not pages:
            return 0
        cut = self._crash_cut(safepoint, len(pages))
        if cut is not None:
            self._crash(safepoint, pages, cut)
        runs = _count_runs(pages)
        self.device.write(len(pages) * self.page_size, requests=runs)
        self.durable_image.commit(pages)
        return len(pages)

    def invalidate(self, pages: Iterable[int]) -> None:
        """Drop pages without writeback (freed H2 regions)."""
        for page in pages:
            self._pages.pop(page, None)

    def flush(self, safepoint: str = "writeback") -> int:
        """Write back all dirty pages; returns the number written.

        The writeback batch is a crash safepoint: a kill mid-flush lands
        a prefix of the dirty set (LRU-order, as the kernel flusher would
        issue it) and tears the page at the cut.
        """
        dirty = [p for p, d in self._pages.items() if d]
        if dirty:
            cut = self._crash_cut(safepoint, len(dirty))
            if cut is not None:
                self._crash(safepoint, dirty, cut)
            runs = _count_runs(sorted(dirty))
            self.device.write(len(dirty) * self.page_size, requests=runs)
            self.durable_image.commit(dirty)
            for page in dirty:
                self._pages[page] = False
            self.writebacks += len(dirty)
        return len(dirty)

    def msync(self) -> int:
        """Synchronous flush of the mapping's dirty pages (``msync(2)``).

        Returns the number of pages written.  Completing the sync bumps
        the image's sync-epoch counter; the fsync-style barrier cost is
        charged by the caller, which owns the clock.
        """
        written = self.flush(safepoint="msync")
        self.durable_image.note_sync()
        return written


def _count_runs(pages) -> int:
    """Number of maximal contiguous runs in a sorted page list."""
    runs = 0
    prev = None
    for page in pages:
        if prev is None or page != prev + 1:
            runs += 1
        prev = page
    return max(runs, 1)
