"""Promotion buffers: batched asynchronous writes of objects into H2.

Moving objects one ``write()`` at a time would cost a system call per
small object.  TeraHeap keeps a 2 MB promotion buffer per destination
region and flushes objects to the device in batches with explicit
asynchronous I/O (Section 3.2).  Objects of 1 MB or more bypass the buffer
and are written directly.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..devices.mmap import MappedFile
from ..heap.object_model import HeapObject
from ..units import MiB

#: objects at or above this size skip the buffer (Section 3.2: "<1MB").
#: Simulated objects are coarse (one object stands for thousands of
#: paper-scale records), so the threshold is expressed in real bytes —
#: batching applies to anything smaller than the buffer itself.
DIRECT_WRITE_THRESHOLD = 1 * MiB


class PromotionBuffer:
    """One region's promotion buffer: the span its staged objects cover."""

    __slots__ = (
        "region_index", "lo", "hi", "count", "buffered_bytes", "flushes",
    )

    def __init__(self, region_index: int):
        self.region_index = region_index
        #: lowest staged address and highest staged end address
        self.lo = 0
        self.hi = 0
        #: staged objects and their bytes
        self.count = 0
        self.buffered_bytes = 0
        self.flushes = 0


class PromotionManager:
    """All promotion buffers plus the flush path to the mapped file."""

    def __init__(self, mapping: MappedFile, buffer_capacity: int = 2 * MiB):
        self.mapping = mapping
        self.buffer_capacity = buffer_capacity
        self._buffers: Dict[int, PromotionBuffer] = {}
        self.objects_written = 0
        self.bytes_written = 0
        self.direct_writes = 0

    # ------------------------------------------------------------------
    def write_object(self, obj: HeapObject, region_index: int) -> None:
        """Stage ``obj`` (already assigned an H2 address) for device write."""
        self.write_many((obj.address,), (obj.size,), (region_index,))

    def write_many(
        self,
        addresses: Sequence[int],
        sizes: Sequence[int],
        regions: Sequence[int],
    ) -> None:
        """Stage placed objects for device write, in order.

        Objects at or above :data:`DIRECT_WRITE_THRESHOLD` go straight to
        the device: one big sequential write is already efficient.  The
        rest fill their region's buffer, which is flushed first whenever
        the next object would overflow it.  The same calls with one
        object each do the same.  A failed (fault-injected) device write
        leaves the object that needed it unstaged and every counter
        unchanged, so a one-object call can be retried as it is.
        """
        buffers = self._buffers
        capacity = self.buffer_capacity
        for address, size, region in zip(addresses, sizes, regions):
            if size >= DIRECT_WRITE_THRESHOLD:
                self.mapping.write_explicit(address, size)
                self.objects_written += 1
                self.bytes_written += size
                self.direct_writes += 1
                continue
            buffer = buffers.get(region)
            if buffer is None:
                buffer = buffers[region] = PromotionBuffer(region)
            elif buffer.buffered_bytes + size > capacity:
                self._flush(buffer)
            end = address + size
            if buffer.count:
                if address < buffer.lo:
                    buffer.lo = address
                if end > buffer.hi:
                    buffer.hi = end
            else:
                buffer.lo = address
                buffer.hi = end
            buffer.count += 1
            buffer.buffered_bytes += size

    @staticmethod
    def _span(buffer: PromotionBuffer) -> Optional[Tuple[int, int]]:
        """The (address, nbytes) span the buffer's staged objects cover.

        Pure: the buffer is only emptied by :meth:`_commit` *after* the
        device write succeeds, so a failed (fault-injected) write leaves
        the staged objects in place and a retry re-issues the same span.
        """
        if not buffer.count:
            return None
        return (buffer.lo, buffer.hi - buffer.lo)

    def _commit(self, buffer: PromotionBuffer) -> None:
        self.objects_written += buffer.count
        self.bytes_written += buffer.buffered_bytes
        buffer.flushes += 1
        buffer.count = 0
        buffer.buffered_bytes = 0

    def _flush(self, buffer: PromotionBuffer) -> None:
        span = self._span(buffer)
        if span is not None:
            # One batched sequential write covering the staged objects.
            self.mapping.write_explicit(*span, safepoint="promotion_flush")
            self._commit(buffer)

    def flush_all(self) -> None:
        """Drain every buffer as one coalesced batch (end of compaction).

        Coalescing matters with huge pages: many small regions share one
        page, and a single large flush writes each page once.
        """
        spans = []
        pending = []
        for buffer in self._buffers.values():
            span = self._span(buffer)
            if span is not None:
                spans.append(span)
                pending.append(buffer)
        if spans:
            self.mapping.write_explicit_many(spans, safepoint="h2_flush")
        for buffer in pending:
            self._commit(buffer)
        self._buffers.clear()
