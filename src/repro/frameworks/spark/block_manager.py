"""The Spark block manager and its compute cache (Section 5, Figure 4).

Cached partitions live in a hash map rooted in the executor.  The three
policies correspond to the paper's configurations:

- **SD**: partitions fill the on-heap cache up to the storage fraction;
  the rest serialize to the off-heap store on the device and must be
  deserialized (fresh objects, fresh garbage) on *every* access.
- **MO**: everything stays on-heap (the heap is sized to fit).
- **TERAHEAP**: every partition descriptor is tagged with
  ``h2_tag_root(root, rdd_id)`` and ``h2_move(rdd_id)`` is issued
  immediately — cached objects migrate to H2 at the next major GC and are
  then read in place.

Under the H2 governor, TERAHEAP degrades gracefully: while the circuit
is OPEN new partitions fall back to serialized-on-heap caching (or are
not cached at all when the storage budget is full — the recompute
penalty), and when the VM applies emergency backpressure the block
manager sheds its H1-charged entries LRU-first via
:meth:`shed_blocks`.

Accounting invariant: every entry is charged to exactly one residency
bucket — ``onheap_used`` (H1 bytes), ``h2_bytes`` (entries whose objects
migrated to H2), or ``offheap_bytes`` (serialized blobs on the device) —
and :meth:`_remove_entry` is the single place an entry leaves the cache,
so drops, evictions and sheds cannot drift the counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from ...clock import Bucket
from ...faults.events import AdoptionEvent
from ...heap.object_model import HeapObject
from ...runtime import JavaVM
from ...serdes.serializer import SerializedBlob
from .conf import CachePolicy, SparkConf
from .rdd import (
    RDD,
    MaterializedPartition,
    PartitionSpec,
    block_label,
    root_size_for,
)


@dataclass
class CacheEntry:
    """One cached partition."""

    kind: str  # "heap" (live objects) | "blob" (serialized)
    partition: Optional[MaterializedPartition] = None
    blob: Optional[SerializedBlob] = None
    num_chunks: int = 0
    chunk_size: int = 0
    #: H1 holder of a serialized-on-heap blob (the governor fallback);
    #: ``None`` for device-resident blobs
    heap_blob: Optional[HeapObject] = None
    #: residency bucket this entry's bytes are charged to:
    #: "h1" (onheap_used), "h2" (h2_bytes) or "offheap" (offheap_bytes)
    charged: str = "h1"
    #: monotone access stamp for LRU shedding
    last_access: int = 0
    #: the per-partition H2 label this entry was tagged (or adopted)
    #: under; empty for non-TERAHEAP entries
    label: str = ""

    def charged_bytes(self) -> int:
        if self.kind == "heap" and self.partition is not None:
            return self.partition.size_bytes
        if self.blob is not None:
            return self.blob.size_bytes
        return 0


class BlockManager:
    """Executor-wide cache of RDD partitions."""

    def __init__(self, vm: JavaVM, conf: SparkConf):
        self.vm = vm
        self.conf = conf
        #: the compute-cache hash map (Figure 4), pinned as a GC root
        self.cache_root = vm.allocate(1024, name="blockmgr-hashmap")
        vm.roots.add(self.cache_root)
        self.entries: Dict[Tuple[int, int], CacheEntry] = {}
        self.onheap_budget = int(
            vm.config.heap_size * conf.storage_fraction
        )
        self.onheap_used = 0
        self.offheap_bytes = 0
        #: bytes of cached entries whose objects migrated to H2
        self.h2_bytes = 0
        self.deserializations = 0
        #: entries dropped by memory-store overflow (MO policy)
        self.drops = 0
        #: entries shed by emergency backpressure
        self.sheds = 0
        self.shed_bytes = 0
        #: computes of partitions that *were* cached but got dropped/shed
        self.recomputes = 0
        #: stores re-routed away from H2 by an open governor circuit
        self.governor_fallbacks = 0
        #: blocks re-adopted from a recovered H2 image after a restart
        self.adoptions = 0
        self.adopted_bytes = 0
        #: blocks lost to quarantined regions across a crash
        self.quarantined_blocks = 0
        #: blocks whose label left no recovered regions at all (never
        #: committed, or shape-mismatched against the partition spec)
        self.lost_blocks = 0
        self._dropped_keys: Set[Tuple[int, int]] = set()
        self._access_seq = 0
        if getattr(vm, "governor", None) is not None:
            vm.register_pressure_handler(self.shed_blocks)

    def _log(self):
        resilience = getattr(self.vm, "resilience", None)
        return resilience.log if resilience is not None else None

    def _stamp(self, entry: CacheEntry) -> None:
        self._access_seq += 1
        entry.last_access = self._access_seq

    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        rdd: RDD,
        index: int,
        compute: Callable[[int], MaterializedPartition],
    ) -> MaterializedPartition:
        key = (rdd.rdd_id, index)
        entry = self.entries.get(key)
        if entry is None:
            if key in self._dropped_keys:
                # The cached copy was dropped (overflow), shed
                # (backpressure) or lost across a crash: this compute is
                # the lineage-recompute penalty.
                self._dropped_keys.discard(key)
                self.recomputes += 1
                log = self._log()
                if log is not None:
                    log.record(
                        AdoptionEvent(
                            self.vm.clock.now,
                            block_label(rdd.cache_label, index),
                            "recomputed",
                        )
                    )
            part = compute(index)
            with self.vm.roots.frame() as frame:
                # Pin the fresh partition while the store path may allocate
                # (serialization temporaries can trigger a collection).
                frame.push(part.root)
                frame.push_all(part.chunks)
                self._store(rdd, index, part)
            return part
        self._stamp(entry)
        if entry.kind == "heap":
            return entry.partition
        return self._read_offheap(rdd, index, entry)

    # ------------------------------------------------------------------
    def _store(self, rdd: RDD, index: int, part: MaterializedPartition) -> None:
        key = (rdd.rdd_id, index)
        vm = self.vm
        policy = self.conf.cache_policy
        size = part.size_bytes
        if policy is CachePolicy.TERAHEAP:
            governor = getattr(vm, "governor", None)
            if governor is not None and governor.blocks_h2_caching():
                # Circuit open: H2 is browned out, do not aim new cached
                # data at it — fall back to serialized-on-heap (or the
                # recompute penalty when the storage budget is full).
                self.governor_fallbacks += 1
                self._store_fallback(rdd, key, part)
                return
            vm.write_ref(self.cache_root, part.root)
            # Mark the partition descriptor as a root key-object with the
            # per-block label and advise the move right away — cached
            # partitions are immutable at allocation time (Section 5).
            # Labels are per partition (not per RDD) so crash recovery
            # can validate and re-adopt each block independently.
            label = block_label(rdd.cache_label, index)
            vm.h2_tag_root(part.root, label)
            vm.h2_move(label)
            entry = CacheEntry(kind="heap", partition=part, label=label)
            self._stamp(entry)
            self.entries[key] = entry
            self.onheap_used += size
            return
        if policy is CachePolicy.MO:
            # MEMORY_ONLY semantics: evict (drop) the oldest cached
            # partitions when the memory store overflows; dropped
            # partitions are recomputed on their next access.
            budget = int(self.vm.config.heap_size * 0.6)
            while self.onheap_used + size > budget and self._drop_oldest():
                pass
            if self.onheap_used + size > budget:
                return  # cannot cache at all; always recompute
            vm.write_ref(self.cache_root, part.root)
            entry = CacheEntry(kind="heap", partition=part)
            self._stamp(entry)
            self.entries[key] = entry
            self.onheap_used += size
            return
        if self.onheap_used + size <= self.onheap_budget:
            vm.write_ref(self.cache_root, part.root)
            entry = CacheEntry(kind="heap", partition=part)
            self._stamp(entry)
            self.entries[key] = entry
            self.onheap_used += size
            return
        # SD overflow: serialize to the off-heap store and let the heap
        # copy die.
        blob = vm.serializer.serialize(part.root)
        device = self.conf.offheap_device
        if device is not None:
            with vm.clock.context(Bucket.SD_IO):
                device.write(blob.size_bytes)
        self.offheap_bytes += blob.size_bytes
        entry = CacheEntry(
            kind="blob",
            blob=blob,
            num_chunks=len(part.chunks),
            chunk_size=part.chunks[0].size if part.chunks else 0,
            charged="offheap",
        )
        self._stamp(entry)
        self.entries[key] = entry

    def _store_fallback(
        self, rdd: RDD, key: Tuple[int, int], part: MaterializedPartition
    ) -> None:
        """Governor fallback: serialized-on-heap caching, or none at all.

        The partition serializes into an H1 byte-array holder (MEMORY_AND
        _DISK_SER semantics without the disk); accesses pay deserialization
        but no device I/O.  If the holder would blow the storage budget
        the partition is not cached and its next access recomputes.
        """
        vm = self.vm
        blob = vm.serializer.serialize(part.root)
        if self.onheap_used + blob.size_bytes > self.onheap_budget:
            self._dropped_keys.add(key)
            return
        holder = vm.allocate(
            blob.size_bytes, name=f"{rdd.name}-p{key[1]}-ser"
        )
        vm.write_ref(self.cache_root, holder)
        entry = CacheEntry(
            kind="blob",
            blob=blob,
            num_chunks=len(part.chunks),
            chunk_size=part.chunks[0].size if part.chunks else 0,
            heap_blob=holder,
            charged="h1",
        )
        self._stamp(entry)
        self.entries[key] = entry
        self.onheap_used += blob.size_bytes

    # ------------------------------------------------------------------
    def reconcile_residency(self) -> None:
        """Re-bucket entries whose objects migrated H1 -> H2.

        A TERAHEAP entry is stored charged to ``onheap_used``; once the
        collector moves its label group to H2 those bytes no longer
        occupy H1.  Shedding such an entry would free nothing, so the
        shed path reconciles first.
        """
        for entry in self.entries.values():
            if (
                entry.kind == "heap"
                and entry.charged == "h1"
                and entry.partition is not None
                and entry.partition.root.in_h2
            ):
                size = entry.partition.size_bytes
                self.onheap_used -= size
                self.h2_bytes += size
                entry.charged = "h2"

    def _remove_entry(self, key: Tuple[int, int]) -> int:
        """Unroot and uncharge one entry; returns the H1 bytes it freed."""
        entry = self.entries.pop(key)
        size = entry.charged_bytes()
        if entry.kind == "heap" and entry.partition is not None:
            self.vm.write_ref(
                self.cache_root, None, remove=entry.partition.root
            )
        elif entry.heap_blob is not None:
            self.vm.write_ref(self.cache_root, None, remove=entry.heap_blob)
        if entry.label:
            # An adopted block also holds a recovery anchor rooting its
            # label's rehydrated objects; drop it with the entry so
            # unpersist/shed actually lets the next major GC reclaim the
            # regions.
            anchor = self.vm.h2_recovery_anchors.pop(entry.label, None)
            if anchor is not None:
                self.vm.roots.remove(anchor)
        if entry.charged == "h1":
            self.onheap_used -= size
            return size
        if entry.charged == "h2":
            self.h2_bytes -= size
        else:
            self.offheap_bytes -= size
        return 0

    def _pinned(self, entry: CacheEntry) -> bool:
        """Is this entry's partition held by an executing task's stack?

        A frame-pinned partition is the input (or output) of a compute
        that is still running: its objects survive any collection, so
        evicting the entry frees no memory — it only corrupts the
        ``onheap_used`` accounting and buys a guaranteed recompute of a
        block that is literally in use.  Every eviction path must skip
        such entries.
        """
        if entry.kind != "heap" or entry.partition is None:
            return False
        return self.vm.roots.frame_pinned(entry.partition.root)

    def _drop_oldest(self) -> bool:
        """Evict the oldest unpinned cached partition (drop, no spill).

        Returns ``False`` when every remaining entry is pinned by an
        in-flight task — the caller must stop evicting and fall through
        to the don't-cache path rather than loop forever.
        """
        for key, entry in self.entries.items():
            if self._pinned(entry):
                continue
            self._remove_entry(key)
            self._dropped_keys.add(key)
            self.drops += 1
            return True
        return False

    def shed_blocks(self, nbytes: int) -> int:
        """Emergency backpressure: shed H1-charged entries, LRU first.

        Called by the VM's :meth:`~repro.runtime.JavaVM.register_pressure_handler`
        hook while the governor circuit is open and H1 is past the
        emergency watermark.  Only entries still occupying H1 are worth
        shedding; H2-backed and device-blob entries free no H1 space.
        Returns the H1 bytes freed (reclaimable at the next full GC).
        """
        self.reconcile_residency()
        freed = 0
        by_lru = sorted(
            self.entries.items(), key=lambda item: item[1].last_access
        )
        for key, entry in by_lru:
            if freed >= nbytes:
                break
            if entry.charged != "h1":
                continue
            if self._pinned(entry):
                continue
            freed += self._remove_entry(key)
            self._dropped_keys.add(key)
            self.sheds += 1
        self.shed_bytes += freed
        return freed

    def store_partition(
        self, rdd: RDD, index: int, part: MaterializedPartition
    ) -> None:
        """Cache a partition materialized outside :meth:`get_or_compute`.

        The streaming executor assembles persisted partitions itself
        (block by block) and hands them over here; the store runs under
        the same pinning frame the compute path uses, so serialization
        temporaries cannot collect the partition mid-store.
        """
        with self.vm.roots.frame() as frame:
            frame.push(part.root)
            frame.push_all(part.chunks)
            self._store(rdd, index, part)

    # ------------------------------------------------------------------
    def _read_offheap(
        self, rdd: RDD, index: int, entry: CacheEntry
    ) -> MaterializedPartition:
        """Deserialize an off-heap partition back onto the heap.

        This is the recurring cost TeraHeap eliminates: every access pays
        device reads, deserialization CPU, and a fresh short-lived copy of
        the whole partition on the managed heap.  Serialized-on-heap
        entries (governor fallback) skip the device read but still pay
        deserialization.
        """
        vm = self.vm
        device = self.conf.offheap_device
        if device is not None and entry.heap_blob is None:
            with vm.clock.context(Bucket.SD_IO):
                device.read(entry.blob.size_bytes)
        vm.serializer.deserialize_cost(entry.blob)
        self.deserializations += 1
        with vm.roots.frame() as frame:
            prefix = f"{rdd.name}-p{index}-d"
            chunks = vm.allocate_array(
                entry.num_chunks,
                entry.chunk_size,
                names=[f"{prefix}{i}" for i in range(entry.num_chunks)],
                frame=frame,
            )
            root = vm.allocate(
                max(64, 8 * entry.num_chunks),
                refs=chunks,
                name=f"{rdd.name}-p{index}-deser",
            )
        return MaterializedPartition(root=root, chunks=chunks)

    # ------------------------------------------------------------------
    # Crash-restart block adoption
    # ------------------------------------------------------------------
    def adopt_recovered(
        self,
        rdd: RDD,
        spec: PartitionSpec,
        quarantined_labels: Dict[str, str],
    ) -> str:
        """Re-adopt one persisted block from a recovered H2 image.

        Called by :meth:`SparkContext.restart` on the *successor* VM's
        freshly built block manager, once per partition of each persisted
        RDD.  The block's fate:

        - ``"adopted"`` — its label survived recovery intact and the
          rehydrated objects match the partition spec exactly (one root
          of the descriptor size + ``num_chunks`` chunks); the entry is
          re-linked into the cache map, charged to ``h2_bytes``.
        - ``"quarantined"`` — recovery quarantined a region under the
          label (stale epoch, torn data): the block is lost; any partial
          anchor is dropped so the surviving fragment gets reclaimed.
        - ``"lost"`` — no recovered regions carried the label (the block
          never committed before the crash), or the recovered object
          multiset does not match the spec; lineage recompute owns it.

        Lost/quarantined keys are marked dropped, so their next access
        counts (and logs) the lineage-recompute penalty.
        """
        vm = self.vm
        key = (rdd.rdd_id, spec.index)
        label = block_label(rdd.cache_label, spec.index)
        log = self._log()
        anchor = vm.h2_recovery_anchors.get(label)

        def lose(outcome: str, detail: str) -> str:
            if anchor is not None:
                vm.roots.remove(anchor)
                vm.h2_recovery_anchors.pop(label, None)
            if outcome == "quarantined":
                self.quarantined_blocks += 1
            else:
                self.lost_blocks += 1
            self._dropped_keys.add(key)
            if log is not None:
                log.record(
                    AdoptionEvent(vm.clock.now, label, outcome, detail)
                )
            return outcome

        if label in quarantined_labels:
            return lose("quarantined", quarantined_labels[label])
        if anchor is None:
            return lose("lost", "no recovered regions under label")
        members = sorted(anchor.refs, key=lambda o: o.address)
        root_size = root_size_for(spec)
        expected = sorted([root_size] + [spec.chunk_size] * spec.num_chunks)
        if sorted(o.size for o in members) != expected:
            return lose(
                "lost",
                f"shape mismatch: {len(members)} objects vs spec "
                f"{spec.num_chunks}+1",
            )
        root = next(o for o in members if o.size == root_size)
        chunks = [o for o in members if o is not root]
        # Re-discover the intra-block structure: the root's outgoing refs
        # are re-installed directly (like the recovery anchors — this is
        # metadata rehydration, not a mutator store).
        root.refs = list(chunks)
        for chunk in chunks:
            chunk.scan_factor = spec.scan_factor
        part = MaterializedPartition(root=root, chunks=chunks)
        vm.write_ref(self.cache_root, root)
        entry = CacheEntry(
            kind="heap", partition=part, charged="h2", label=label
        )
        self._stamp(entry)
        self.entries[key] = entry
        self.h2_bytes += part.size_bytes
        self.adoptions += 1
        self.adopted_bytes += part.size_bytes
        if log is not None:
            log.record(
                AdoptionEvent(
                    vm.clock.now, label, "adopted", f"{part.size_bytes}B"
                )
            )
        return "adopted"

    # ------------------------------------------------------------------
    def evict_rdd(self, rdd: RDD) -> None:
        """Drop an RDD's cached partitions (unpersist)."""
        self.reconcile_residency()
        for key in [k for k in self.entries if k[0] == rdd.rdd_id]:
            self._remove_entry(key)
