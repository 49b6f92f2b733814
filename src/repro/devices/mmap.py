"""Memory-mapped file regions with page faults and optional huge pages.

TeraHeap maps H2 over a file on the storage device (file-backed ``mmap``)
so the OS virtual-memory system performs reference translation and the JVM
needs no custom lookup (Section 3.1).  Accesses to unmapped pages fault and
pull pages through the kernel page cache.  For Spark ML workloads the paper
uses HugeMap to enable huge pages on the file mapping, reducing fault
frequency for streaming access (Section 6).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import SegmentationFault
from .base import AccessPattern, Device
from .page_cache import PageCache

#: base-page size of the mapping (real bytes at simulation scale)
BASE_PAGE = 4096
#: "huge" page size.  Real HugeMap pages are 2 MiB (512x); at simulation
#: scale we keep a 64x ratio so huge pages still cover many objects without
#: making the page cache trivially coarse.
HUGE_PAGE = 64 * BASE_PAGE


class MappedFile:
    """A file-backed mapping: an address range over a device + page cache."""

    def __init__(
        self,
        device: Device,
        base: int,
        size: int,
        cache: PageCache,
        huge_pages: bool = False,
        fault_plan=None,
    ):
        if size <= 0:
            raise ValueError("mapping size must be positive")
        self.device = device
        self.base = base
        self.size = size
        self.cache = cache
        self.page_size = HUGE_PAGE if huge_pages else BASE_PAGE
        self.huge_pages = huge_pages
        self.page_faults = 0
        #: optional FaultPlan consulted on faulting accesses (SIGBUS)
        self.fault_plan = fault_plan
        self.sigbus_count = 0
        # Scale the cache's page granularity to the mapping's.
        if cache.page_size != self.page_size:
            cache.page_size = self.page_size
            cache.max_pages = max(1, cache.max_pages * BASE_PAGE // self.page_size)
            cache.durable_image.page_size = self.page_size

    # ------------------------------------------------------------------
    def _pages_for(self, address: int, nbytes: int) -> range:
        offset = address - self.base
        last = offset + max(nbytes, 1) - 1
        if offset < 0 or last >= self.size:
            raise self._outside(address, nbytes)
        return range(offset // self.page_size, last // self.page_size + 1)

    def _outside(self, address: int, nbytes: int) -> SegmentationFault:
        return SegmentationFault(
            f"access [{address:#x}, +{nbytes}) outside mapping "
            f"[{self.base:#x}, +{self.size})"
        )

    def _maybe_sigbus(self, address: int, misses: int) -> None:
        """Simulated SIGBUS: an I/O error surfacing through a page fault.

        Consulted only when the access actually faulted pages in (the
        kernel delivers SIGBUS from its fault handler, never on a cache
        hit).  The faulted pages stay cached, so a retry of the same
        access hits the cache and succeeds — matching a transient media
        error that clears on the kernel's own retry.
        """
        if misses == 0 or self.fault_plan is None:
            return
        if self.fault_plan.page_fault_outcome(self.device.name, address):
            self.sigbus_count += 1
            fault = SegmentationFault(
                f"simulated SIGBUS faulting {address:#x} on "
                f"{self.device.name}",
                address=address,
            )
            fault.sigbus = True
            raise fault

    # ------------------------------------------------------------------
    def load(
        self,
        address: int,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> Tuple[int, int]:
        """Read ``nbytes`` at ``address``; faults fill from the device."""
        pages = self._pages_for(address, nbytes)
        hits, misses = self.cache.access(pages, write=False, pattern=pattern)
        self.page_faults += misses
        self._maybe_sigbus(address, misses)
        return hits, misses

    def load_many(
        self,
        addresses: Sequence[int],
        sizes: Sequence[int],
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> Tuple[int, int]:
        """Read the spans ``addresses[i], sizes[i]`` in order, as one
        :meth:`load` per span would, in one page-cache pass.

        The spans' first and stop pages come from one numpy pass over
        the two columns.  Spans up to the first one outside the mapping
        are loaded; that one then raises the same
        :class:`SegmentationFault` as :meth:`load`.  No SIGBUS is
        consulted here: callers under a fault plan load object by object.
        """
        address = np.asarray(addresses, dtype=np.int64)
        nbytes = np.asarray(sizes, dtype=np.int64)
        offset = address - self.base
        last = offset + np.maximum(nbytes, 1) - 1
        outside = (offset < 0) | (last >= self.size)
        fault = None
        if outside.any():
            bad = int(outside.argmax())
            fault = self._outside(int(address[bad]), int(nbytes[bad]))
            offset, last = offset[:bad], last[:bad]
        page = self.page_size
        hits, misses = self.cache.access_many(
            offset // page, last // page + 1, pattern
        )
        self.page_faults += misses
        if fault is not None:
            raise fault
        return hits, misses

    def store(
        self,
        address: int,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.RANDOM,
    ) -> Tuple[int, int]:
        """Write ``nbytes`` at ``address`` through the fault path.

        A store to an uncached page is a read-modify-write: the kernel
        faults the page in before the store dirties it.
        """
        pages = self._pages_for(address, nbytes)
        hits, misses = self.cache.access(pages, write=True, pattern=pattern)
        self.page_faults += misses
        self._maybe_sigbus(address, misses)
        return hits, misses

    def write_explicit(
        self, address: int, nbytes: int, safepoint: str = "h2_write"
    ) -> int:
        """Batched explicit write bypassing the fault path (promotion I/O)."""
        pages = self._pages_for(address, nbytes)
        return self.cache.write_through(pages, safepoint=safepoint)

    def write_explicit_many(self, spans, safepoint: str = "h2_write") -> int:
        """Write several (address, nbytes) spans as one coalesced batch.

        Spans that share pages (e.g. several regions inside one huge page)
        are written once — the behaviour of a single large flush.
        """
        pages = set()
        for address, nbytes in spans:
            pages.update(self._pages_for(address, nbytes))
        if not pages:
            return 0
        return self.cache.write_through(sorted(pages), safepoint=safepoint)

    def pages_for(self, address: int, nbytes: int) -> range:
        """Public page-span lookup (durable-image checks during recovery)."""
        return self._pages_for(address, nbytes)

    def msync(self) -> int:
        """Flush the mapping's dirty pages to the device (``msync(2)``)."""
        return self.cache.msync()

    def discard(self, address: int, nbytes: int) -> None:
        """Drop a range without writeback (freeing dead H2 regions)."""
        pages = self._pages_for(address, nbytes)
        self.cache.invalidate(pages)
