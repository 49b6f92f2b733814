"""The H2 heap: region allocator over a memory-mapped device file.

H2 coexists with H1 in the JVM's virtual address space (Figure 1): H1 is
an anonymous mapping in DRAM, H2 a file-backed mapping on the storage
device.  The OS virtual-memory system translates references into H2, so
mutators access H2 objects with plain loads/stores — no S/D, no custom
lookup.  All H2 *metadata* (region array, dependency lists, card table)
stays in DRAM (Figure 2).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

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
from ..faults.events import CrashEvent, RecoveryEvent
from ..heap.object_model import HeapObject, SpaceId
from ..heap.store import FLAG_H2_CANDIDATE, SPACE_H2
from .h2_card_table import CardState, H2CardTable
from .promotion import PromotionManager
from .recovery import RecoveryReport, RegionJournalEntry, header_page
from .regions import PER_REGION_METADATA_BYTES, Region, RegionLiveness

#: smallest batch :meth:`H2Heap.mutator_load_many` hands to the page
#: cache's batch kernel; smaller batches load object by object.  The
#: kernel's numpy set-up costs about 50 us per batch.  On a 2-vCPU x86
#: host, a batch of 8 KiB objects that all miss takes 1.00x the
#: per-object loop's time at 20 objects and 0.66x at 32; one whose
#: pages all hit takes 1.39x at 32 and 1.04x at 64.
LOAD_MANY_MIN = 32
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
        *,
        store,
    ):
        self.config = config
        #: the heap store recovery rehydrates objects into
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
            # stripe size == region size, as the paper sets it, so objects
            # never span stripes and boundary cards never stay dirty (§3.4)
            config.region_size,
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
        #: "groups" policy: record each cross-region edge in both
        #: regions' dependency lists, so liveness spreads over the
        #: undirected connected component (a region group, Section 3.3)
        self._undirected_deps = config.region_policy == "groups"
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
            base = H2_BASE + index * self.config.region_size
            region = Region(self.store, index, base, self.config.region_size)
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
    def place_objects(
        self,
        oids: Sequence[int],
        labels: Sequence[str],
        epoch: int,
        on_denied: Optional[Callable[[DeviceFullError], bool]] = None,
    ) -> Tuple[List[int], List[str], int]:
        """Give each object an H2 address in its label's open region.

        Objects with the same label land in the same region so whole
        groups can be reclaimed en masse; objects never span regions.
        Called during pre-compaction (Section 4), in mover order.

        Under size-aware placement (§7.3 future work), objects at or
        above a quarter region are segregated into per-label large-object
        regions, so sparse regions of big arrays can die independently of
        dense regions of small objects.

        A :class:`DeviceFullError` from a region allocation denies that
        object.  Without ``on_denied`` it propagates; otherwise
        ``on_denied(exc)`` decides (it may re-raise): True denies every
        remaining object too, False goes on with the next one.  An
        object larger than a region raises :class:`OutOfMemoryError`.
        Either way the objects placed before the raise keep their
        addresses.  Returns the placed oids, their labels as given and
        their total bytes.
        """
        store = self.store
        size_arr = store.size
        addr_arr = store.address
        space_arr = store.space
        region_arr = store.region_id
        flags_arr = store.flags
        label_col = store.label
        region_size = self.config.region_size
        large = (
            region_size // 4 if self.config.size_aware_placement else None
        )
        regions = self.regions
        open_by_label = self._open_by_label
        placed: List[int] = []
        placed_labels: List[str] = []
        nbytes = 0
        # The region being filled: its label, index, top and end as plain
        # ints, and the oids appended since it was entered.
        region: Optional[Region] = None
        current = None
        index = top = end = 0
        run: List[int] = []
        try:
            for oid, group in zip(oids, labels):
                size = size_arr[oid]
                if size > region_size:
                    raise OutOfMemoryError(
                        f"object of {size} B exceeds H2 region size "
                        f"{region_size} B",
                        requested=size,
                    )
                label = group
                if large is not None and size >= large:
                    label = f"{group}:large"
                if label != current or top + size > end:
                    if region is not None:
                        region.extend(run, top)
                        region, current, run = None, None, []
                    open_index = open_by_label.get(label)
                    target = (
                        regions.get(open_index)
                        if open_index is not None
                        else None
                    )
                    if (
                        target is None
                        or target.label != label
                        or target.top + size > target.end
                    ):
                        try:
                            target = self._new_region(label, epoch)
                        except DeviceFullError as exc:
                            if on_denied is None:
                                raise
                            if on_denied(exc):
                                break
                            continue
                        open_by_label[label] = target.index
                    region = target
                    current = label
                    index = region.index
                    top = region.top
                    end = region.end
                addr_arr[oid] = top
                space_arr[oid] = SPACE_H2
                region_arr[oid] = index
                label_col[oid] = label
                flags_arr[oid] &= ~FLAG_H2_CANDIDATE
                top += size
                nbytes += size
                run.append(oid)
                placed.append(oid)
                placed_labels.append(group)
        finally:
            if region is not None:
                region.extend(run, top)
            self.objects_moved += len(placed)
            self.bytes_moved += nbytes
        return placed, placed_labels, nbytes

    def assign_address(self, obj: HeapObject, label: str, epoch: int) -> Region:
        """Place one object (see :meth:`place_objects`); returns its region."""
        self.place_objects((obj.oid,), (label,), epoch)
        return self.regions[obj.region_id]

    def write_objects(self, oids: Sequence[int]) -> None:
        """Emit placed objects' bytes through the promotion buffers.

        Under a resilience policy or a mapping fault plan each object is
        its own retry unit (and fault consult); otherwise the whole
        sequence is staged in one call.
        """
        idx = np.asarray(oids, dtype=np.int64)
        store = self.store
        addresses = store.address_view()[idx].tolist()
        sizes = store.size_view()[idx].tolist()
        regions = store.region_view()[idx].tolist()
        stage = self.promotion.write_many
        if self.resilience is None and self.mapping.fault_plan is None:
            stage(addresses, sizes, regions)
            return
        for one in zip(addresses, sizes, regions):
            self._io(
                "h2_write_object",
                lambda: stage((one[0],), (one[1],), (one[2],)),
            )

    def finish_compaction(self) -> None:
        self._io("h2_flush", self.promotion.flush_all)

    # ------------------------------------------------------------------
    # Crash consistency: commit protocol and recovery
    # ------------------------------------------------------------------
    def _journal_deps(self, region: Region) -> tuple:
        """The dependency edges a region's header journal persists.

        Under the "groups" policy the journal records the region's group
        co-members, the other active regions of its connected component;
        recovery restores them as edges, which connect the same group.
        """
        if not self._undirected_deps:
            return tuple(sorted(region.deps))
        regions = self.regions
        group: Set[int] = set()
        stack = [region.index]
        while stack:
            index = stack.pop()
            if index not in group:
                group.add(index)
                stack.extend(regions[index].deps if index in regions else ())
        group.discard(region.index)
        return tuple(
            sorted(i for i in group if i in regions and not regions[i].is_empty)
        )

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
            oids = region.oid_array()
            offsets = self.store.address_view()[oids] - region.base
            entry = RegionJournalEntry(
                region_index=index,
                epoch=epoch,
                label=region.label or "",
                used_bytes=region.used,
                live=region.live,
                deps=self._journal_deps(region),
                objects=tuple(
                    zip(offsets.tolist(), self.store.size_view()[oids].tolist())
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
                    log.record(
                        CrashEvent(
                            self.clock.now,
                            "epoch_commit",
                            f"epoch={epoch} cut={cut}/1",
                        )
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
            region = Region(self.store, index, start, region_size)
            region.label = entry.label
            region.live = entry.live
            region.allocated_epoch = 0
            self.regions[index] = region
            for _, size in entry.objects:
                obj = HeapObject(
                    size, name=f"recovered:{entry.label}", store=self.store
                )
                region.allocate(obj.oid)
                obj.space = SpaceId.H2
                obj.region_id = index
                obj.label = entry.label
            region.deps = set(entry.deps)
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
            self.resilience.log.record(
                RecoveryEvent(
                    self.clock.now,
                    report.regions_recovered,
                    report.regions_quarantined,
                    detail=f"epoch={report.committed_epoch}",
                )
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
        self.regions[src_region].deps.add(dst_region)
        if self._undirected_deps:
            self.regions[dst_region].deps.add(src_region)

    # ------------------------------------------------------------------
    # Liveness (major GC marking, Section 3.3 / Section 4)
    # ------------------------------------------------------------------
    def reset_live_bits(self) -> None:
        for region in self.regions.values():
            region.live = False

    def mark_region_live(self, index: int) -> None:
        """Set a region's live bit and propagate along dependency lists."""
        self.mark_regions_live((index,))

    def mark_regions_live(self, indices: Iterable[int]) -> None:
        """Set each region's live bit and propagate along dependency
        lists, in one walk: the live bits come out as with one
        :meth:`mark_region_live` per index."""
        regions = self.regions
        # Always walk each start's dependency list — edges may have been
        # recorded after its live bit was first set.
        stack: List[int] = []
        for index in indices:
            start = regions.get(index)
            if start is not None:
                start.live = True
                stack.extend(start.deps)
        while stack:
            region = regions.get(stack.pop())
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
        self.mark_regions_live(
            [r.index for r in self.regions.values() if r.live and r.deps]
        )
        reclaimed = []
        dropped = []
        for region in self.regions.values():
            if region.is_empty or region.live:
                continue
            self.liveness_log.append(
                RegionLiveness(
                    total_objects=len(region),
                    live_objects=0,
                    used_bytes=region.used,
                    live_bytes=0,
                    capacity=region.capacity,
                )
            )
            self.bytes_reclaimed += region.used
            self.mapping.discard(region.base, region.capacity)
            self.card_table.clear_range(region.base, region.end)
            dropped.append(region.oid_array())
            region.reset()
            reclaimed.append(region.index)
        if dropped:
            oids = np.concatenate(dropped)
            self.store.free_rows(oids)
            self.store.region_view()[oids] = -1
        self._free_indices.extend(reclaimed)
        doomed = set(reclaimed)
        for label in [
            label
            for label, index in self._open_by_label.items()
            if index in doomed
        ]:
            del self._open_by_label[label]
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
        (and SIGBUS consult), so the batch falls back to that loop.  A
        batch of fewer than :data:`LOAD_MANY_MIN` objects loads object
        by object too, since that costs less host time than the batch
        kernel's set-up.
        """
        if self.resilience is not None or self.mapping.fault_plan is not None:
            for obj in objs:
                self.mutator_load(obj, pattern)
            return
        if not objs:
            return
        store = objs[0]._store
        oids = [obj.oid for obj in objs]
        if len(oids) < LOAD_MANY_MIN:
            address, size, load = store.address, store.size, self.mapping.load
            for oid in oids:
                load(address[oid], size[oid], pattern)
            return
        self.mapping.load_many(
            store.address_view()[oids], store.size_view()[oids], pattern
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
