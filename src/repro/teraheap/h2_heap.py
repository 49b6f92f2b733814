"""The H2 heap: region allocator over a memory-mapped device file.

H2 coexists with H1 in the JVM's virtual address space (Figure 1): H1 is
an anonymous mapping in DRAM, H2 a file-backed mapping on the storage
device.  The OS virtual-memory system translates references into H2, so
mutators access H2 objects with plain loads/stores — no S/D, no custom
lookup.  All H2 *metadata* (region array, dependency lists, card table)
stays in DRAM (Figure 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..clock import Clock
from ..config import TeraHeapConfig
from ..devices.base import AccessPattern, Device
from ..devices.durability import DurableImage
from ..devices.mmap import MappedFile
from ..devices.page_cache import PageCache
from ..errors import (
    DeviceFullError,
    OutOfMemoryError,
    SimulatedCrash,
    UnrecoverableCrash,
)
from ..heap.object_model import HeapObject
from .h2_card_table import CardState, H2CardTable
from .promotion import PromotionManager
from .recovery import RecoveryReport, RegionJournalEntry, header_page
from .region_groups import RegionGroups
from .regions import PER_REGION_METADATA_BYTES, Region, RegionLiveness

#: base virtual address of the H2 mapping, disjoint from H1
H2_BASE = 0x1_0000_0000


class H2Heap:
    """Region-based second heap with lazy bulk reclamation."""

    def __init__(
        self,
        config: TeraHeapConfig,
        device: Device,
        clock: Clock,
        page_cache_size: int,
        resilience=None,
        store=None,
    ):
        self.config = config
        #: the heap store recovery rehydrates objects into; ``None``
        #: falls back to the process-default store (single-VM path)
        self.store = store
        #: optional ResiliencePolicy; when set, the device is fronted by a
        #: fault injector and every H2 I/O path runs under the retry loop
        self.resilience = resilience
        if resilience is not None:
            device = resilience.wrap_device(device)
        self.device = device
        self.clock = clock
        self.page_cache = PageCache(
            device,
            page_cache_size,
            fault_plan=resilience.plan if resilience is not None else None,
        )
        if resilience is not None:
            self.page_cache.resilience_log = resilience.log
        self.mapping = MappedFile(
            device,
            H2_BASE,
            config.h2_size,
            self.page_cache,
            huge_pages=config.huge_pages,
            fault_plan=resilience.plan if resilience is not None else None,
        )
        self.card_table = H2CardTable(
            H2_BASE,
            config.h2_size,
            config.card_segment_size,
            config.stripe_size,
            stripe_aligned=config.stripe_aligned,
        )
        self.promotion = PromotionManager(
            self.mapping, config.promotion_buffer_size
        )
        self.num_regions = config.h2_size // config.region_size
        #: allocated regions by index (lazily created)
        self.regions: Dict[int, Region] = {}
        self._free_indices: List[int] = []
        self._next_fresh = 0
        #: open (current) region per label, for append placement
        self._open_by_label: Dict[str, int] = {}
        #: union-find groups, used only under the "groups" policy
        self.region_groups: Optional[RegionGroups] = (
            RegionGroups() if config.region_policy == "groups" else None
        )
        #: group representatives marked live this GC (groups policy)
        self._live_group_roots: Set[int] = set()
        #: per-GC record of region liveness, feeding Figure 10
        self.liveness_log: List[RegionLiveness] = []
        self.regions_reclaimed = 0
        self.bytes_reclaimed = 0
        self.regions_allocated_total = 0
        self.objects_moved = 0
        self.bytes_moved = 0
        #: region indices quarantined by crash recovery (torn data,
        #: stale-epoch headers) mapped to the reason; never reallocated
        self.quarantined: Dict[int, str] = {}
        #: application checkpoint note persisted with the next commit
        self.checkpoint_note: str = ""
        #: completed commit epochs (msync + journal + superblock)
        self.commits = 0
        #: the report of the recovery that built this heap, if any
        self.recovery_report: Optional[RecoveryReport] = None
        #: soft cap on this heap's device footprint in bytes; ``None``
        #: leaves the whole ``h2_size`` mapping usable.  The server
        #: layer's memory-pressure arbiter carves a shared device across
        #: tenants by moving these budgets each epoch; exceeding the
        #: budget denies the region (a graceful device-full, so movers
        #: fall back to the in-H1 path, not an abort).
        self.byte_budget: Optional[int] = None

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------
    @property
    def metadata_bytes(self) -> int:
        """Current DRAM metadata footprint (Figure 2 structures)."""
        return len(self.regions) * PER_REGION_METADATA_BYTES

    def used_bytes(self) -> int:
        return sum(r.used for r in self.regions.values())

    def active_regions(self) -> List[Region]:
        return [r for r in self.regions.values() if not r.is_empty]

    def _io(self, op: str, fn):
        """Run one H2 I/O operation under the resilience policy (if any)."""
        if self.resilience is None:
            return fn()
        return self.resilience.run(op, fn)

    def _new_region(self, label: str, epoch: int) -> Region:
        if (
            self.resilience is not None
            and self.resilience.plan.allocation_fault(
                self.device.name,
                self.config.region_size,
                now=self.clock.now,
            )
        ):
            raise DeviceFullError(
                f"injected device-full allocating an H2 region on "
                f"{self.device.name}",
                device=self.device.name,
                requested=self.config.region_size,
            )
        if self.byte_budget is not None:
            # Device footprint = every allocated region, empty or not —
            # an empty region still occupies its slice of the mapping.
            in_use = len(self.regions) - len(self._free_indices)
            if (in_use + 1) * self.config.region_size > self.byte_budget:
                denial = DeviceFullError(
                    f"H2 byte budget exhausted on {self.device.name}: "
                    f"{in_use} regions in use against a budget of "
                    f"{self.byte_budget} B",
                    device=self.device.name,
                    requested=self.config.region_size,
                )
                # Marks a quota denial (elastic, arbiter-imposed) apart
                # from a genuinely full or faulted device.
                denial.budget_denial = True
                raise denial
        if self._free_indices:
            index = self._free_indices.pop()
            region = self.regions[index]
        elif self._next_fresh < self.num_regions:
            index = self._next_fresh
            self._next_fresh += 1
            start = H2_BASE + index * self.config.region_size
            region = Region(index, start, self.config.region_size)
            self.regions[index] = region
        else:
            raise OutOfMemoryError(
                "H2 exhausted: no free regions",
                requested=self.config.region_size,
            )
        region.label = label
        region.allocated_epoch = epoch
        self.regions_allocated_total += 1
        return region

    def region_at(self, address: int) -> Optional[Region]:
        index = (address - H2_BASE) // self.config.region_size
        return self.regions.get(index)

    # ------------------------------------------------------------------
    # Object placement (compaction phase of major GC)
    # ------------------------------------------------------------------
    def assign_address(self, obj: HeapObject, label: str, epoch: int) -> Region:
        """Pick an H2 address for ``obj`` in its label's open region.

        Objects with the same label land in the same region so whole
        groups can be reclaimed en masse; objects never span regions.
        Called during pre-compaction (Section 4).

        Under size-aware placement (§7.3 future work), objects at or
        above a quarter region are segregated into per-label large-object
        regions, so sparse regions of big arrays can die independently of
        dense regions of small objects.
        """
        if obj.size > self.config.region_size:
            raise OutOfMemoryError(
                f"object of {obj.size} B exceeds H2 region size "
                f"{self.config.region_size} B",
                requested=obj.size,
            )
        if (
            self.config.size_aware_placement
            and obj.size >= self.config.region_size // 4
        ):
            label = f"{label}:large"
        index = self._open_by_label.get(label)
        region = self.regions.get(index) if index is not None else None
        if region is None or region.label != label or not region.has_room(obj.size):
            region = self._new_region(label, epoch)
            self._open_by_label[label] = region.index
        region.allocate(obj)
        obj.label = label
        self.objects_moved += 1
        self.bytes_moved += obj.size
        return region

    def write_object(self, obj: HeapObject) -> None:
        """Emit the object's bytes through the promotion buffers."""
        self._io(
            "h2_write_object",
            lambda: self.promotion.write_object(obj, obj.region_id),
        )

    def finish_compaction(self) -> None:
        self._io("h2_flush", self.promotion.flush_all)

    # ------------------------------------------------------------------
    # Crash consistency: commit protocol and recovery
    # ------------------------------------------------------------------
    def _journal_deps(self, region: Region) -> tuple:
        """The dependency edges a region's header journal persists.

        Under the "groups" policy the union-find structure carries the
        cross-region information, so the journal records the region's
        group co-members instead; recovery re-unions them.
        """
        if self.region_groups is not None:
            root = self.region_groups.find(region.index)
            return tuple(
                sorted(
                    other.index
                    for other in self.active_regions()
                    if other.index != region.index
                    and self.region_groups.find(other.index) == root
                )
            )
        return tuple(sorted(region.deps))

    def commit_epoch(
        self, epoch: int, note: str = "", fsync_cost: float = 0.0
    ) -> None:
        """Make the current H2 state durable: msync, journal, superblock.

        The three-step protocol gives every crash a well-defined durable
        image: (1) ``msync`` flushes dirty data pages (safepoint
        "msync"); (2) one header journal entry per active region is
        staged and the header pages written as a batch (safepoint
        "region_metadata_update" — a torn header keeps its previous
        shadow entry); (3) the superblock write is the atomic commit
        point (safepoint "epoch_commit" — a kill here either tears the
        in-flight slot, falling back to the previous commit, or lands
        the record just before the process dies).  The fsync barrier
        cost is charged to the clock at the end.
        """
        image = self.page_cache.durable_image
        self._io("h2_msync", self.mapping.msync)
        pages: List[int] = []
        manifest: List[int] = []
        for index in sorted(self.regions):
            region = self.regions[index]
            if region.is_empty:
                continue
            entry = RegionJournalEntry(
                region_index=index,
                epoch=epoch,
                label=region.label or "",
                used_bytes=region.used,
                live=region.live,
                deps=self._journal_deps(region),
                objects=tuple(
                    (obj.address - region.start, obj.size)
                    for obj in region.objects
                ),
            )
            page = header_page(index)
            image.stage_journal(page, index, entry)
            pages.append(page)
            manifest.append(index)
        if pages:
            self._io(
                "h2_region_metadata",
                lambda: self.page_cache.write_metadata(
                    pages, safepoint="region_metadata_update"
                ),
            )
        plan = self.resilience.plan if self.resilience is not None else None
        if plan is not None:
            cut = plan.crash_batch_cut("epoch_commit", 1)
            if cut is not None:
                # The superblock write was in flight when the kill hit:
                # it either tore (previous commit survives) or landed
                # entirely just before the process died.
                self.device.write(
                    self.page_cache.page_size, AccessPattern.RANDOM
                )
                if cut == 0:
                    image.tear_superblock()
                    image.drop_staged()
                else:
                    image.commit_superblock(epoch, manifest, note)
                log = self.page_cache.resilience_log
                if log is not None:
                    log.record_crash(
                        self.clock.now,
                        "epoch_commit",
                        f"epoch={epoch} cut={cut}/1",
                    )
                raise SimulatedCrash(
                    f"simulated kill committing epoch {epoch}",
                    safepoint="epoch_commit",
                    op_index=plan.op_index,
                )
        self._io(
            "h2_superblock",
            lambda: self.device.write(
                self.page_cache.page_size, AccessPattern.RANDOM
            ),
        )
        image.commit_superblock(epoch, manifest, note)
        if fsync_cost:
            self.clock.charge(fsync_cost)
        image.note_sync()
        self.commits += 1

    def recover(self, image: DurableImage) -> RecoveryReport:
        """Rebuild H2 metadata from a crashed process's durable image.

        Must be called on a freshly constructed (empty) H2 heap.  The
        scan reads the superblock, then every manifest region's header
        journal entry, quarantining regions whose header epoch does not
        match the committed epoch ("stale-epoch"), whose committed data
        extent is torn or unwritten ("torn-data"), or whose object
        records do not tile the extent ("journal-inconsistent").
        Surviving regions are rebuilt — region array entry, rehydrated
        objects, dependency list, conservatively dirtied card segments —
        and their bytes rescanned through the page cache (charging the
        device reads recovery really pays).  An image with no readable
        superblock, or a manifest region with no readable header at all,
        raises :class:`UnrecoverableCrash` with a diff-style report.
        """
        if self.regions:
            raise ValueError("recover() requires a fresh H2 heap")
        self._io(
            "h2_recovery",
            lambda: self.device.read(
                self.page_cache.page_size, AccessPattern.RANDOM
            ),
        )
        if image.superblock is None:
            raise UnrecoverableCrash(
                "durable image unrecoverable:\n"
                "- superblock: expected a readable commit record, "
                "found every slot torn",
                problems=["superblock unreadable"],
            )
        report = RecoveryReport(
            committed_epoch=image.committed_epoch,
            checkpoint_note=image.checkpoint_note,
        )
        # Adopt the image: this heap's future writes continue it.
        image.page_size = self.page_cache.page_size
        self.page_cache.durable_image = image
        problems: List[str] = []
        region_size = self.config.region_size
        for index in image.manifest:
            slots = image.journal_entries(index)
            if not slots:
                problems.append(
                    f"- region {index}: manifest names it but no readable "
                    "header journal entry survives"
                )
                continue
            self._io(
                "h2_recovery",
                lambda: self.device.read(
                    self.page_cache.page_size, AccessPattern.RANDOM
                ),
            )
            entry = image.journal_entry(index, image.committed_epoch)
            if entry is None:
                epochs = sorted(
                    {getattr(e, "epoch", None) for e in slots}
                )
                self.quarantined[index] = (
                    f"stale-epoch: header slots hold epoch(s) {epochs} "
                    f"!= committed {image.committed_epoch}"
                )
                continue
            start = H2_BASE + index * region_size
            span = self.mapping.pages_for(start, max(entry.used_bytes, 1))
            torn = image.torn_in(span)
            missing = image.missing_in(span)
            if torn or missing:
                detail = []
                if torn:
                    detail.append(f"torn pages {sorted(torn)}")
                if missing:
                    detail.append(f"unwritten pages {sorted(missing)}")
                self.quarantined[index] = "torn-data: " + ", ".join(detail)
                continue
            offset = 0
            consistent = True
            for off, size in entry.objects:
                if off != offset or size <= 0:
                    consistent = False
                    break
                offset = off + size
            if (
                not consistent
                or offset != entry.used_bytes
                or entry.used_bytes > region_size
            ):
                self.quarantined[index] = (
                    "journal-inconsistent: object records do not tile "
                    f"[0, {entry.used_bytes})"
                )
                continue
            region = Region(index, start, region_size)
            region.label = entry.label
            region.live = entry.live
            region.allocated_epoch = 0
            self.regions[index] = region
            for _, size in entry.objects:
                obj = HeapObject(
                    size, name=f"recovered:{entry.label}", store=self.store
                )
                region.allocate(obj)
                obj.label = entry.label
            region.deps = set(entry.deps)
            if self.region_groups is not None:
                for dep in entry.deps:
                    self.region_groups.union(index, dep)
            # Rescan the surviving bytes through the page cache.
            self._io(
                "h2_recovery_scan",
                lambda s=start, n=entry.used_bytes: self.mapping.load(s, n),
            )
            # Conservative card state: references inside rehydrated
            # objects are unknown, so every covered segment must rescan.
            first = self.card_table.card_index(start)
            last = self.card_table.card_index(start + entry.used_bytes - 1)
            for card in range(first, last + 1):
                self.card_table.set_state(card, CardState.DIRTY)
            report.recovered[index] = entry.label
            report.objects_recovered += entry.object_count
            report.bytes_recovered += entry.used_bytes
        if problems:
            raise UnrecoverableCrash(
                "durable image unrecoverable:\n" + "\n".join(problems),
                problems=problems,
            )
        report.quarantined = dict(self.quarantined)
        known = set(report.recovered) | set(self.quarantined)
        self._next_fresh = max(known, default=-1) + 1
        self.checkpoint_note = image.checkpoint_note
        self.recovery_report = report
        if self.resilience is not None:
            self.resilience.log.record_recovery(
                self.clock.now,
                report.regions_recovered,
                report.regions_quarantined,
                detail=f"epoch={report.committed_epoch}",
            )
        return report

    # ------------------------------------------------------------------
    # Cross-region references (Section 3.3)
    # ------------------------------------------------------------------
    def record_cross_region_ref(self, src_region: int, dst_region: int) -> None:
        """A reference from an object in ``src_region`` to one in
        ``dst_region`` was created (during object transfer)."""
        if src_region == dst_region:
            return
        if self.region_groups is not None:
            self.region_groups.union(src_region, dst_region)
        else:
            self.regions[src_region].deps.add(dst_region)

    # ------------------------------------------------------------------
    # Liveness (major GC marking, Section 3.3 / Section 4)
    # ------------------------------------------------------------------
    def reset_live_bits(self) -> None:
        for region in self.regions.values():
            region.live = False
        self._live_group_roots = set()

    def mark_region_live(self, index: int) -> None:
        """Set a region's live bit and propagate along dependency lists."""
        if self.region_groups is not None:
            # Group policy: any H1 reference into the group revives it
            # all; membership resolves lazily at reclaim time.
            region = self.regions.get(index)
            if region is not None:
                region.live = True
            self._live_group_roots.add(self.region_groups.find(index))
            return
        start = self.regions.get(index)
        if start is None:
            return
        start.live = True
        # Always walk the start's dependency list — edges may have been
        # recorded after its live bit was first set.
        stack = list(start.deps)
        while stack:
            current = stack.pop()
            region = self.regions.get(current)
            if region is None or region.live:
                continue
            region.live = True
            stack.extend(region.deps)

    def reclaim_dead_regions(self, epoch: int) -> int:
        """Free every allocated, non-live region in bulk (end of marking).

        Freeing costs no device I/O: the allocation pointer is zeroed, the
        dependency list deleted, and the mapped pages dropped without
        writeback.
        """
        # Re-propagate liveness along dependency lists: edges recorded
        # after a region's live bit was set (e.g. during the card scan)
        # must still pin their targets.
        if self.region_groups is not None:
            # Any member of a live group is live.
            for region in self.regions.values():
                if region.live:
                    self._live_group_roots.add(
                        self.region_groups.find(region.index)
                    )
            for region in self.regions.values():
                if (
                    not region.is_empty
                    and self.region_groups.find(region.index)
                    in self._live_group_roots
                ):
                    region.live = True
        else:
            for region in list(self.regions.values()):
                if region.live:
                    self.mark_region_live(region.index)
        reclaimed = []
        for region in self.regions.values():
            if region.is_empty or region.live:
                continue
            self.liveness_log.append(
                RegionLiveness(
                    total_objects=len(region.objects),
                    live_objects=0,
                    used_bytes=region.used,
                    live_bytes=0,
                    capacity=region.capacity,
                )
            )
            self.bytes_reclaimed += region.used
            self.mapping.discard(region.start, region.capacity)
            self.card_table.clear_range(region.start, region.end)
            region.reclaim()
            reclaimed.append(region.index)
        for index in reclaimed:
            self._free_indices.append(index)
            for label, open_index in list(self._open_by_label.items()):
                if open_index == index:
                    del self._open_by_label[label]
        if self.region_groups is not None and reclaimed:
            self.region_groups.remove(reclaimed)
        self.regions_reclaimed += len(reclaimed)
        return len(reclaimed)

    # ------------------------------------------------------------------
    # Statistics (Figure 10, Table 5)
    # ------------------------------------------------------------------
    def finalize_liveness_stats(self, mark_epoch: int) -> List[RegionLiveness]:
        """Record stats for regions still active at shutdown and return the
        complete log (reclaimed + active), the Figure 10 population."""
        log = list(self.liveness_log)
        for region in self.active_regions():
            log.append(region.live_object_stats(mark_epoch))
        return log

    # ------------------------------------------------------------------
    # Mutator access
    # ------------------------------------------------------------------
    def mutator_load(
        self, obj: HeapObject, pattern: AccessPattern = AccessPattern.SEQUENTIAL
    ) -> None:
        """A mutator reads an H2 object: fault pages in through the cache."""
        self._io(
            "h2_mutator_load",
            lambda: self.mapping.load(obj.address, obj.size, pattern),
        )

    def mutator_load_many(
        self,
        objs: Sequence[HeapObject],
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> None:
        """Read several H2 objects in order, in one page-cache pass.

        Charges exactly what one :meth:`mutator_load` per object would.
        Under a resilience policy each object stays its own retry unit
        (and SIGBUS consult), so the batch falls back to that loop.
        """
        if self.resilience is not None or self.mapping.fault_plan is not None:
            for obj in objs:
                self.mutator_load(obj, pattern)
            return
        if not objs:
            return
        store = objs[0]._store
        address, size = store.address, store.size
        self.mapping.load_many(
            [(address[obj.oid], size[obj.oid]) for obj in objs], pattern
        )

    def mutator_store(self, obj: HeapObject, nbytes: int = 8) -> None:
        """A mutator updates a field of an H2 object (read-modify-write)."""
        self._io(
            "h2_mutator_store",
            lambda: self.mapping.store(obj.address, nbytes),
        )

    # ------------------------------------------------------------------
    # Streaming spill traffic (raw block copies, no S/D)
    # ------------------------------------------------------------------
    def spill_write(self, nbytes: int) -> None:
        """Write ``nbytes`` of raw in-flight block bytes to the device.

        The streaming executor's backpressure spill: unlike the SD
        policy's off-heap store, the bytes go out as-is (H2 objects need
        no serialization), so the cost is pure device write under the
        retry policy.  Charged to the caller's current clock context.
        """
        if nbytes <= 0:
            return
        self._io(
            "h2_spill_write",
            lambda: self.device.write(nbytes, AccessPattern.SEQUENTIAL),
        )

    def spill_read(self, nbytes: int) -> None:
        """Read a previously spilled raw block back (no deserialization)."""
        if nbytes <= 0:
            return
        self._io(
            "h2_spill_read",
            lambda: self.device.read(nbytes, AccessPattern.SEQUENTIAL),
        )

    # ------------------------------------------------------------------
    # GC access (card-segment scans and backward-reference rewrites)
    # ------------------------------------------------------------------
    def scan_load(self, lo: int, nbytes: int) -> None:
        """GC reads a card segment's objects, under the retry policy."""
        self._io("h2_card_scan", lambda: self.mapping.load(lo, nbytes))

    def scan_store(self, lo: int, nbytes: int) -> None:
        """GC rewrites references in a card segment, under retry."""
        self._io("h2_card_adjust", lambda: self.mapping.store(lo, nbytes))
