"""Kernel page cache model: LRU cache of device pages in DR2 DRAM.

The paper's TeraHeap configurations reserve part of DRAM (DR2) for the
kernel page cache that backs H2's memory mapping (Section 6).  Workloads
with locality hit the cache; streaming workloads (Spark ML, Section 7.1)
miss continuously and run into the device-bandwidth ceiling.

The LRU is kept in page-indexed columns rather than one map entry per
page, so that a streaming run of misses is a few numpy operations:

- ``_where[page]`` is the log position of the page's live entry, 0 when
  the page is not cached;
- ``_dirty[page]`` is its dirty bit, never set on an uncached page;
- ``_log`` lists pages in touch order from position 1.  Touching a page
  appends it and points ``_where`` at the new entry, which leaves the
  older entry stale: an entry is live only while ``_where`` points at
  it.  The live entries from ``_head`` to ``_tail``, oldest first, are
  the LRU order.  Eviction advances ``_head`` past stale entries.  When
  the log is full it is compacted: the live entries are kept, in order,
  and renumbered from 1.

The columns grow to the highest page touched.  The per-page loops read
and write them through ``memoryview`` s, which index faster than numpy
scalars.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulatedCrash
from .base import AccessPattern, Device
from .durability import DurableImage

#: after a compaction the log holds at least this many times its live
#: entries plus the batch being appended, so compactions stay amortised
LOG_SLACK = 4

_Pending = Tuple[List[int], List[int]]


class PageCache:
    """LRU page cache in front of a block device.

    Pages are identified by non-negative integer page numbers.  Dirty
    pages are written back to the device on eviction (or via
    :meth:`flush`), modelling the kernel writeback path that turns
    scattered stores into device write traffic.

    Every write that reaches the device also lands in the
    :class:`~repro.devices.durability.DurableImage` — the device-side
    truth that survives a simulated kill.  Dirty pages in the cache are
    *not* durable until writeback.  When a :class:`FaultPlan` with crash
    scheduling is attached, batch writes consult it at named safepoints:
    a crash lands a seeded prefix of the batch, tears the page at the
    cut, and raises :class:`SimulatedCrash`.

    The LRU state is the three columns described in the module
    docstring; :meth:`lru` lists it as ``(page, dirty)`` pairs.
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
        #: page -> log position of its live entry (0: not cached)
        self._where = np.zeros(0, dtype=np.int32)
        #: page -> dirty bit (only ever set on a cached page)
        self._dirty = np.zeros(0, dtype=np.bool_)
        #: pages in touch order; position 0 is unused
        self._log = np.zeros(1, dtype=np.int32)
        #: first log position that may be live
        self._head = 1
        #: next log position to append at
        self._tail = 1
        #: number of cached pages
        self._live = 0
        self._page_views()
        self._log_view = memoryview(self._log)
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
        return self._live

    def __contains__(self, page: int) -> bool:
        return 0 <= page < self._where.size and self._where_view[page] != 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lru(self) -> List[Tuple[int, bool]]:
        """The cached pages as ``(page, dirty)``, oldest first."""
        pages = self._live_pages()
        return list(zip(pages.tolist(), self._dirty[pages].tolist()))

    # ------------------------------------------------------------------
    # The columns
    # ------------------------------------------------------------------
    def _page_views(self) -> None:
        self._where_view = memoryview(self._where)
        self._dirty_view = memoryview(self._dirty)

    def _cover(self, low: int, top: int) -> None:
        """Make the page columns hold page ``top``; reject ``low < 0``."""
        if low < 0:
            raise ValueError(f"negative page number {low}")
        size = self._where.size
        if top < size:
            return
        size = max(top + 1, 2 * size)
        where = np.zeros(size, dtype=np.int32)
        dirty = np.zeros(size, dtype=np.bool_)
        where[: self._where.size] = self._where
        dirty[: self._dirty.size] = self._dirty
        self._where, self._dirty = where, dirty
        self._page_views()

    def _live_pages(self) -> np.ndarray:
        """The cached pages in LRU order: the live log entries."""
        head, tail = self._head, self._tail
        entries = self._log[head:tail]
        positions = np.arange(head, tail, dtype=np.int32)
        return entries[self._where[entries] == positions]

    def _room(self, count: int) -> None:
        """Make room to append ``count`` log entries.

        Callers check first that the log is full.  It is compacted: the
        live entries move to positions ``1..live`` in LRU order and
        ``_where`` is renumbered.  Then it grows, if need be, to
        :data:`LOG_SLACK` times what it must hold.
        """
        pages = self._live_pages()
        live = pages.size
        log = self._log
        size = LOG_SLACK * (live + count) + 1
        if size > log.size:
            log = np.zeros(size, dtype=np.int32)
        log[1 : live + 1] = pages
        self._where[pages] = np.arange(1, live + 1)
        self._log = log
        self._log_view = memoryview(log)
        self._head = 1
        self._tail = live + 1

    def _oldest(self, count: int) -> np.ndarray:
        """Log positions of the ``count`` oldest live entries."""
        head, tail = self._head, self._tail
        log, where = self._log, self._where
        take = count
        while True:
            stop = min(head + take, tail)
            positions = np.arange(head, stop)
            live = positions[where[log[head:stop]] == positions]
            if live.size >= count or stop == tail:
                return live[:count]
            take *= 2

    # ------------------------------------------------------------------
    def _evict_over_limit(self) -> None:
        """Evict the oldest pages down to the limit, writing back dirty
        ones: the head skips stale entries to the first live one."""
        where, dirty, log = self._where_view, self._dirty_view, self._log_view
        while self._live > self.max_pages:
            head = self._head
            page = log[head]
            while where[page] != head:
                head += 1
                page = log[head]
            where[page] = 0
            self._head = head + 1
            self._live -= 1
            self.evictions += 1
            if dirty[page]:
                dirty[page] = False
                self._write_back(page)

    def _write_back(self, page: int) -> None:
        """Write one evicted dirty page back to the device."""
        self.writebacks += 1
        self.device.write(self.page_size, AccessPattern.RANDOM)
        # A single-page eviction writeback is atomic at device page
        # granularity: it lands whole or not at all, so it commits
        # without a crash check.
        self.durable_image.commit((page,))

    def _insert_clean(self, pages: np.ndarray) -> bool:
        """Insert distinct uncached ``pages`` clean, in order, then evict
        the oldest pages over the limit; False (and nothing done) when a
        victim is dirty.

        Equals inserting each page and evicting after it: the victims are
        the oldest pages either way, and the inserts are clean.  Victims
        among the new pages are never appended.
        """
        over = self._live + pages.size - self.max_pages
        if over > 0:
            old = min(over, self._live)
            victims = self._oldest(old)
            evicted = self._log[victims]
            if self._dirty[evicted].any():
                return False
            self._where[evicted] = 0
            if old == self._live:
                self._head = self._tail
            else:
                self._head = int(victims[-1]) + 1
            self._live -= old
            self.evictions += over
            pages = pages[over - old :]
        count = pages.size
        if self._tail + count > self._log.size:
            self._room(count)
        tail = self._tail
        self._log[tail : tail + count] = pages
        self._where[pages] = np.arange(tail, tail + count)
        self._tail = tail + count
        self._live += count
        return True

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
        self,
        pages: Sequence[int],
        write: bool,
        pattern: AccessPattern,
        pending: Optional[_Pending] = None,
    ) -> Tuple[int, int]:
        """Touch one span of distinct pages; returns ``(hits, misses)``.

        Hits move to the LRU tail in page order (dirtied by a write);
        the misses are fetched in one device read (one request per
        contiguous run), then inserted in order.  After each insert the
        oldest page over the limit is evicted, inline while it is clean;
        a dirty victim is written back before the next insert, so a
        writeback that raises leaves the later misses uncached.  Inside
        :meth:`access_many` the read is appended to ``pending`` instead,
        and charged before any writeback.  The hit/miss counters are
        left to the caller.
        """
        count = len(pages)
        if not count:
            return 0, 0
        tail = self._tail
        log = self._log_view
        if tail + count > len(log):
            self._room(count)
            tail, log = self._tail, self._log_view
        where, dirty = self._where_view, self._dirty_view
        miss_pages = []
        for page in pages:
            if where[page]:
                where[page] = tail
                log[tail] = page
                tail += 1
                if write:
                    dirty[page] = True
            else:
                miss_pages.append(page)
        if not miss_pages:
            self._tail = tail
            return count, 0
        misses = len(miss_pages)
        size = misses * self.page_size
        # :meth:`access` hands on only step-1 ranges: all missed, one run.
        if misses == count and type(pages) is range:
            runs = 1
        else:
            runs = _count_runs(miss_pages)
        if pending is None:
            self.device.read(size, pattern, requests=runs)
        else:
            pending[0].append(size)
            pending[1].append(runs)
        max_pages = self.max_pages
        head, live, evictions = self._head, self._live, self.evictions
        for page in miss_pages:
            where[page] = tail
            log[tail] = page
            tail += 1
            if write:
                dirty[page] = True
            live += 1
            while live > max_pages:
                victim = log[head]
                while where[victim] != head:
                    head += 1
                    victim = log[head]
                where[victim] = 0
                head += 1
                live -= 1
                evictions += 1
                if dirty[victim]:
                    dirty[victim] = False
                    self._tail, self._head = tail, head
                    self._live, self.evictions = live, evictions
                    if pending is not None:
                        self._read_pending(pending, pattern)
                    self._write_back(victim)
        self._tail, self._head = tail, head
        self._live, self.evictions = live, evictions
        return count - misses, misses

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
        if type(pages) is range and pages.step == 1:
            if pages.start < 0 or pages.stop > len(self._where_view):
                self._cover(pages.start, pages.stop - 1)
        else:
            if not isinstance(pages, list):
                pages = list(pages)
            if pages:
                self._cover(min(pages), max(pages))
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
        sure misses is one log append, one position scatter and one
        vectorised pick of the oldest pages over the limit, unless one
        of those victims is dirty.  Every other span, and every span of
        a stretch with a dirty victim, runs on its own through the
        per-span path.

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
        self._cover(int(firsts.min()), int(pages.max()))
        # A page's first touch in the batch misses unless it is cached now.
        sure = np.zeros(pages.size, dtype=bool)
        sure[np.unique(pages, return_index=True)[1]] = True
        sure &= self._where[pages] == 0
        unsure = np.logical_and.reduceat(sure, starts) == 0
        pending: _Pending = ([], [])
        hits = 0
        misses = pages.size
        stretch_lengths = lengths
        starts = starts.tolist()
        lengths = lengths.tolist()
        done = 0
        for span in np.flatnonzero(unsure).tolist() + [count]:
            if span > done:
                end = starts[span] if span < count else pages.size
                self._insert_sure_misses(
                    pages[starts[done] : end],
                    stretch_lengths[done:span],
                    pending,
                    pattern,
                )
            if span < count:
                first = starts[span]
                span_pages = pages[first : first + lengths[span]].tolist()
                hits += self._access_span(
                    span_pages, False, pattern, pending
                )[0]
            done = span + 1
        self._read_pending(pending, pattern)
        misses -= hits
        self.hits += hits
        self.misses += misses
        return hits, misses

    def _insert_sure_misses(
        self,
        pages: np.ndarray,
        lengths: np.ndarray,
        pending: _Pending,
        pattern: AccessPattern,
    ) -> None:
        """Insert a stretch of sure-miss spans, then evict over the limit.

        A dirty victim's writeback must follow only the reads of the
        spans up to the one that evicts it, so a stretch with a dirty
        victim runs span by span instead.
        """
        if not self._insert_clean(pages):
            first = 0
            pages = pages.tolist()
            for length in lengths.tolist():
                self._access_span(
                    pages[first : first + length], False, pattern, pending
                )
                first += length
            return
        # A span of all-miss consecutive pages is one device request.
        pending[0].extend((lengths * self.page_size).tolist())
        pending[1].extend([1] * lengths.size)

    def _read_pending(
        self, pending: _Pending, pattern: AccessPattern
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

        The cache sees one insert per page, each evicting the oldest
        pages over the limit.  An ascending batch of uncached pages
        whose victims are all clean is inserted in one step instead.
        """
        pages = list(pages)
        if not pages:
            return 0
        batch = np.asarray(pages, dtype=np.int32)
        self._cover(int(batch.min()), int(batch.max()))
        self._write_batch(pages, _count_runs(pages), safepoint)
        if (
            bool((batch[1:] > batch[:-1]).all())
            and not self._where[batch].any()
            and self._insert_clean(batch)
        ):
            return len(pages)
        where, dirty = self._where_view, self._dirty_view
        for page in pages:
            if self._tail == self._log.size:
                self._room(1)
            if where[page]:
                dirty[page] = False
            else:
                self._live += 1
            where[page] = self._tail
            self._log_view[self._tail] = page
            self._tail += 1
            self._evict_over_limit()
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
        where, dirty = self._where_view, self._dirty_view
        size = self._where.size
        for page in pages:
            if 0 <= page < size and where[page]:
                where[page] = 0
                dirty[page] = False
                self._live -= 1

    def flush(self, safepoint: str = "writeback") -> int:
        """Write back all dirty pages; returns the number written.

        The writeback batch is a crash safepoint: a kill mid-flush lands
        a prefix of the dirty set (LRU-order, as the kernel flusher would
        issue it) and tears the page at the cut.
        """
        cached = self._live_pages()
        dirty = cached[self._dirty[cached]]
        if dirty.size:
            pages = dirty.tolist()
            self._write_batch(pages, _count_runs(sorted(pages)), safepoint)
            self._dirty[dirty] = False
            self.writebacks += len(pages)
        return int(dirty.size)

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
