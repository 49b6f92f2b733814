"""Kernel page cache model: LRU cache of device pages in DR2 DRAM.

The paper's TeraHeap configurations reserve part of DRAM (DR2) for the
kernel page cache that backs H2's memory mapping (Section 6).  Workloads
with locality hit the cache; streaming workloads (Spark ML, Section 7.1)
miss continuously and run into the device-bandwidth ceiling.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import islice, repeat
from typing import Iterable, List, Sequence, Tuple

import numpy as np

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
                self._write_back(evicted)

    def _write_back(self, page: int) -> None:
        """Write one evicted dirty page back to the device."""
        self.writebacks += 1
        self.device.write(self.page_size, AccessPattern.RANDOM)
        # A single-page eviction writeback is atomic at device page
        # granularity: it lands whole or not at all, so it commits
        # without a crash check.
        self.durable_image.commit((page,))

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
    def _write_batch(
        self, pages: List[int], runs: int, safepoint: str
    ) -> None:
        """Write ``pages`` to the device as one batch of ``runs``
        requests and commit them to the durable image in order.

        The batch is the crash safepoint ``safepoint``: when the fault
        plan kills the process here, a prefix of ``pages`` lands, the
        page at the cut tears and :class:`SimulatedCrash` is raised.
        """
        if self.fault_plan is not None:
            cut = self.fault_plan.crash_batch_cut(safepoint, len(pages))
            if cut is not None:
                self._crash(safepoint, pages, cut)
        self.device.write(len(pages) * self.page_size, requests=runs)
        self.durable_image.commit(pages)

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
            # Imported here: repro.faults sits above the device layer.
            from ..faults.events import CrashEvent

            self.resilience_log.record(
                CrashEvent(
                    self.device.clock.now, safepoint, f"cut={cut}/{len(pages)}"
                )
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
        firsts: Sequence[int],
        stops: Sequence[int],
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> Tuple[int, int]:
        """Read the page spans ``[firsts[i], stops[i])`` in order: the
        batch kernel.

        Returns the summed ``(hits, misses)``.  The LRU order, counters,
        device traffic, durable image and clock totals equal one
        :meth:`access` per span.  Each span's device read is deferred
        and charged through :meth:`Device.read_many` at the end of the
        batch, or just before a dirty victim's writeback, so the clock
        sees reads and writebacks in per-span order.

        A span is a sure miss when none of its pages is cached at the
        start of the batch or touched earlier in it.  Each stretch of
        sure misses is inserted in one step and then evicted down to the
        limit in one step, unless a victim is dirty.  Every other span,
        and every span of a stretch with a dirty victim, runs on its
        own: its hits move to the LRU tail in page order, its misses are
        then inserted in order, and the oldest pages over the limit are
        evicted.  The inserts are clean, so evicting once after them
        picks the same victims in the same order as evicting after each.

        Meant for fault-free devices: a deferred read or a writeback
        that raised would leave the batch's state apart from the
        per-span path.  Under a fault plan, call :meth:`access` per span.
        """
        firsts = np.asarray(firsts, dtype=np.int64)
        stops = np.asarray(stops, dtype=np.int64)
        lengths = stops - firsts
        # An empty span touches nothing, not even the device.
        touched = lengths > 0
        if not touched.all():
            firsts, lengths = firsts[touched], lengths[touched]
        count = firsts.size
        if not count:
            return 0, 0
        starts = np.cumsum(lengths) - lengths
        span_of = np.repeat(np.arange(count), lengths)
        pages = firsts[span_of] + (np.arange(span_of.size) - starts[span_of])
        page_list = pages.tolist()
        # A page's first touch in the batch misses unless it is cached now.
        sure = np.zeros(pages.size, dtype=bool)
        sure[np.unique(pages, return_index=True)[1]] = True
        cached_now = self._pages.keys() & page_list
        if cached_now:
            sure &= ~np.isin(pages, list(cached_now))
        unsure = np.logical_and.reduceat(sure, starts) == 0
        pending: Tuple[List[int], List[int]] = ([], [])
        hits = 0
        misses = int(lengths.sum())
        starts = starts.tolist()
        lengths = lengths.tolist()
        done = 0
        for span in np.flatnonzero(unsure).tolist() + [count]:
            if span > done:
                end = starts[span] if span < count else len(page_list)
                self._insert_sure_misses(
                    page_list[starts[done] : end],
                    lengths[done:span],
                    pending,
                    pattern,
                )
            if span < count:
                first = starts[span]
                span_pages = page_list[first : first + lengths[span]]
                hits += self._access_batch_span(span_pages, pending, pattern)
            done = span + 1
        self._read_pending(pending, pattern)
        misses -= hits
        self.hits += hits
        self.misses += misses
        return hits, misses

    def _insert_sure_misses(
        self,
        pages: List[int],
        lengths: List[int],
        pending: Tuple[List[int], List[int]],
        pattern: AccessPattern,
    ) -> None:
        """Insert a stretch of sure-miss spans, then evict over the limit.

        Equals inserting each span in turn and evicting after it: the
        victims are the oldest pages either way, and the stretch's own
        inserts are clean.  A dirty victim's writeback must follow only
        the reads of the spans up to the one that evicts it, so a
        stretch with a dirty victim runs span by span instead.
        """
        cached = self._pages
        over = len(cached) + len(pages) - self.max_pages
        if over > 0 and any(islice(cached.values(), over)):
            first = 0
            for length in lengths:
                self._access_batch_span(
                    pages[first : first + length], pending, pattern
                )
                first += length
            return
        cached.update(dict.fromkeys(pages, False))
        if over > 0:
            self.evictions += over
            deque(map(cached.popitem, repeat(False, over)), maxlen=0)
        # A span of all-miss consecutive pages is one device request.
        page_size = self.page_size
        pending[0].extend([n * page_size for n in lengths])
        pending[1].extend([1] * len(lengths))

    def _access_batch_span(
        self,
        pages: List[int],
        pending: Tuple[List[int], List[int]],
        pattern: AccessPattern,
    ) -> int:
        """Touch one span inside :meth:`access_many`; returns its hits.

        One pass moves each hit to the LRU tail and collects the misses:
        a span's pages are distinct, so no miss can turn into a hit
        before the misses are inserted.
        """
        cached = self._pages
        miss_pages = []
        for page in pages:
            if page in cached:
                cached.move_to_end(page)
            else:
                miss_pages.append(page)
        if not miss_pages:
            return len(pages)
        pending[0].append(len(miss_pages) * self.page_size)
        pending[1].append(_count_runs(miss_pages))
        cached.update(dict.fromkeys(miss_pages, False))
        over = len(cached) - self.max_pages
        if over > 0:
            self.evictions += over
            for page, dirty in map(cached.popitem, repeat(False, over)):
                if dirty:
                    self._read_pending(pending, pattern)
                    self._write_back(page)
        return len(pages) - len(miss_pages)

    def _read_pending(
        self, pending: Tuple[List[int], List[int]], pattern: AccessPattern
    ) -> None:
        """Charge the batch's deferred span reads and clear them."""
        sizes, requests = pending
        if sizes:
            self.device.read_many(sizes, pattern, requests)
            sizes.clear()
            requests.clear()

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
        self._write_batch(pages, _count_runs(pages), safepoint)
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
        if pages:
            self._write_batch(pages, _count_runs(pages), safepoint)
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
            self._write_batch(dirty, _count_runs(sorted(dirty)), safepoint)
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
