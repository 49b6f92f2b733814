"""Garbage-First (G1) collector model — the OpenJDK17 baseline of Figure 8.

G1 divides the heap into equal regions and collects the regions with the
least live data first.  Young collections evacuate eden/survivor regions;
mixed collections additionally evacuate the emptiest old regions after a
(mostly concurrent) marking cycle.

Humongous objects — larger than half a region — are allocated in
contiguous runs of dedicated regions, one object per run, and are never
moved.  The slack between the object's end and its last region's end is
wasted, and the contiguity requirement fragments the region space; the
paper observes SVM, BC and RL failing with OOM for exactly this reason
(Section 7.1).
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Set

import numpy as np

from ..clock import Bucket, Clock
from ..config import VMConfig
from ..errors import OutOfMemoryError
from ..heap.heap import H1_BASE
from ..heap.object_model import HeapObject, SpaceId
from ..heap.roots import RootSet
from ..heap.spaces import Extent
from ..heap.store import (
    SPACE_EDEN,
    SPACE_OLD,
    SPACE_TO,
    HeapStore,
)
from ..units import MB
from .base import TENURING_THRESHOLD, Collector, GCCycle
from .engine import (
    ENGINE_SEED,
    GCTaskEngine,
    PhaseExecution,
    TaskBag,
)


class RegionState(enum.Enum):
    FREE = "free"
    EDEN = "eden"
    SURVIVOR = "survivor"
    OLD = "old"
    HUMONGOUS_START = "humongous_start"
    HUMONGOUS_CONT = "humongous_cont"

_YOUNG_STATES = (RegionState.EDEN, RegionState.SURVIVOR)

#: target fraction of the heap collected per mixed collection
MIXED_COLLECTION_FRACTION = 0.25

#: G1 region size (HotSpot's ``G1HeapRegionSize`` for the paper's heaps)
REGION_SIZE = 32 * MB
#: concurrent marking pool divisor: ``ConcGCThreads = ParallelGCThreads
#: / 4``, the paper's (and HotSpot's default) configuration.  The
#: marking cycle runs on this narrower lane set racing mutator
#: (``Bucket.OTHER``) progress; only marking that outruns the mutator
#: lands in the pause.
CONCURRENT_DIVISOR = 4
#: fraction of the marking work redone at the stop-the-world remark
#: pause closing a cycle (SATB buffer drain + re-scan of objects the
#: mutator touched while marking ran)
REMARK_FRACTION = 0.05


class G1Region(Extent):
    """One G1 heap region."""

    __slots__ = ("index", "state")

    def __init__(self, store: HeapStore, index: int, base: int, capacity: int):
        super().__init__(store, base, capacity)
        self.index = index
        self.state = RegionState.FREE

    def reset(self) -> None:
        super().reset()
        self.state = RegionState.FREE


class G1Heap:
    """Region-structured heap with humongous allocation."""

    def __init__(self, config: VMConfig, store: HeapStore):
        self.config = config
        self.store = store
        self.region_size = REGION_SIZE
        self.num_regions = max(config.heap_size // self.region_size, 4)
        self.regions = [
            G1Region(
                store, i, H1_BASE + i * self.region_size, self.region_size
            )
            for i in range(self.num_regions)
        ]
        self.young_target = max(2, int(self.num_regions * config.young_fraction))
        self._current_eden: Optional[G1Region] = None
        self.allocated_objects = 0
        self.allocated_bytes = 0
        self.humongous_allocations = 0
        self.humongous_waste = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.num_regions * self.region_size

    def used(self) -> int:
        return sum(
            r.capacity if r.state is RegionState.HUMONGOUS_CONT else r.used
            for r in self.regions
            if r.state is not RegionState.FREE
        )

    def young_regions(self) -> List[G1Region]:
        return [r for r in self.regions if r.state in _YOUNG_STATES]

    def old_regions(self) -> List[G1Region]:
        return [r for r in self.regions if r.state is RegionState.OLD]

    def take_free_region(self, state: RegionState) -> Optional[G1Region]:
        for region in self.regions:
            if region.state is RegionState.FREE:
                region.state = state
                return region
        return None

    def is_humongous(self, size: int) -> bool:
        return size > self.region_size // 2

    # ------------------------------------------------------------------
    def eden_room(self, sizes: Sequence[int], start: int = 0) -> int:
        """Always 0: G1 allocates object by object (region switches,
        humongous runs), so run allocation never batches on it."""
        return 0

    def try_allocate(self, obj: HeapObject) -> bool:
        if self.is_humongous(obj.size):
            return self._allocate_humongous(obj)
        region = self._current_eden
        if region is None or not region.allocate(obj.oid):
            # The eden budget counts eden regions only; survivor regions
            # are sized by the previous collection's survivors.
            eden_count = sum(
                1 for r in self.regions if r.state is RegionState.EDEN
            )
            if eden_count >= self.young_target:
                return False
            region = self.take_free_region(RegionState.EDEN)
            if region is None:
                return False
            self._current_eden = region
            if not region.allocate(obj.oid):
                return False
        obj.region_id = region.index
        obj.space = SpaceId.EDEN
        self.allocated_objects += 1
        self.allocated_bytes += obj.size
        return True

    def _allocate_humongous(self, obj: HeapObject) -> bool:
        """First-fit contiguous run of free regions; never relocated.

        Each humongous object owns its whole run: the final region's slack
        is unusable — the fragmentation source behind the paper's G1 OOMs.
        """
        needed = -(-obj.size // self.region_size)
        run_start = None
        run_len = 0
        for region in self.regions:
            if region.state is RegionState.FREE:
                if run_start is None:
                    run_start = region.index
                run_len += 1
                if run_len == needed:
                    break
            else:
                run_start = None
                run_len = 0
        if run_start is None or run_len < needed:
            return False
        head = self.regions[run_start]
        head.state = RegionState.HUMONGOUS_START
        head.extend((obj.oid,), head.base + min(obj.size, head.capacity))
        for i in range(run_start + 1, run_start + needed):
            cont = self.regions[i]
            cont.state = RegionState.HUMONGOUS_CONT
            cont.top = cont.end
        obj.address = head.base
        obj.region_id = head.index
        obj.space = SpaceId.OLD
        self.humongous_allocations += 1
        self.humongous_waste += needed * self.region_size - obj.size
        self.allocated_objects += 1
        self.allocated_bytes += obj.size
        return True

    def free_humongous_run(self, head: G1Region) -> None:
        oids = head.oid_array()
        needed = (
            -(-self.store.size[oids[0]] // self.region_size) if len(oids) else 1
        )
        for i in range(head.index, head.index + needed):
            self.regions[i].reset()


class G1WriteBarrier:
    """G1's post-write barrier: dirties the source's remembered-set entry.

    G1's barrier is substantially heavier than PS's card mark (it filters,
    enqueues and refines); we model it as 3x the PS barrier cost.
    """

    def __init__(self, collector: "G1Collector", clock: Clock, cost):
        self.collector = collector
        self.clock = clock
        self.cost = cost
        self.barrier_count = 0

    def on_reference_store(self, src: HeapObject, target) -> None:
        self.barrier_count += 1
        self.clock.charge(self.cost.barrier_cost * 3)
        if src.space is SpaceId.OLD and target is not None and target.in_young:
            self.collector.remset_sources.add(src.oid)


class G1Collector(Collector):
    """Young + mixed collections with a full-GC fallback."""

    name = "g1"

    def __init__(
        self,
        heap: G1Heap,
        roots: RootSet,
        clock: Clock,
        config: VMConfig,
        store: HeapStore,
    ):
        super().__init__(store)
        self.heap = heap
        self.roots = roots
        self.clock = clock
        self.config = config
        self.cost = config.cost
        #: approximate remembered set: old objects that gained young refs
        self.remset_sources: Set[int] = set()
        # G1 parallel GC threads (the paper configures 8).
        self._workers = min(config.gc_threads, 8)
        self._concurrent_workers = max(
            1, self._workers // CONCURRENT_DIVISOR
        )
        #: Bucket.OTHER total at the end of the last concurrent marking
        #: cycle — the start of the next cycle's overlap window.  Each
        #: mutator second can hide at most one cycle's marking.
        self._concurrent_baseline = 0.0
        self._last_remark_pause = 0.0
        self.engine = GCTaskEngine(
            clock,
            config.cost,
            workers=self._workers,
            seed=ENGINE_SEED,
            trace=config.engine.trace,
            name=self.name,
        )
        self.full_collections = 0

    def _run_phase(self, bag: TaskBag, phase: str) -> PhaseExecution:
        execution = self.engine.run(bag, phase)
        self.note_execution(execution)
        return execution

    # ------------------------------------------------------------------
    def _trace_young(self, epoch: int) -> List[int]:
        cost = self.cost
        st = self.store
        space_arr = st.space
        refs_arr = st.refs
        visit_cost = cost.gc_visit_cost
        ref_cost = cost.gc_ref_cost
        batch = self.config.engine.scan_batch_objects
        stack = self.roots.oids()
        scanned: List[int] = []
        for oid in list(self.remset_sources):
            if space_arr[oid] != SPACE_OLD:
                self.remset_sources.discard(oid)
                continue
            targets = refs_arr[oid]
            scanned.append(oid)
            stack.extend(targets)
            if not any(space_arr[t] <= SPACE_TO for t in targets):
                # Precise cleaning: the entry carries no young refs.
                self.remset_sources.discard(oid)
        bag = TaskBag()
        bag.add_batches(
            "g1-remset",
            "root",
            st.scan_costs(scanned, visit_cost, ref_cost, scaled=False),
            batch,
        )
        live = st.dfs_closure(stack, epoch, SPACE_TO)
        bag.add_batches(
            "g1-young-scan",
            "scan",
            st.scan_costs(live, visit_cost, ref_cost),
            batch,
        )
        self._run_phase(bag, "g1-young-trace")
        return live

    def _evacuate(self, oids: List[int], state: RegionState) -> bool:
        """Copy the objects in ``oids`` into fresh regions of ``state``."""
        cost = self.cost
        st = self.store
        space_arr = st.space
        region_arr = st.region_id
        dest_code = SPACE_EDEN if state in _YOUNG_STATES else SPACE_OLD
        target = self.heap.take_free_region(state)
        if target is None and oids:
            return False
        copied = 0
        for oid in oids:
            while target is not None and not target.allocate(oid):
                target = self.heap.take_free_region(state)
            if target is None:
                break
            region_arr[oid] = target.index
            space_arr[oid] = dest_code
            copied += 1
        bag = TaskBag()
        bag.add_batches(
            "g1-copy",
            "copy",
            st.size_view()[np.asarray(oids[:copied], dtype=np.int64)]
            / cost.gc_copy_bw,
            self.config.engine.copy_batch_objects,
        )
        self._run_phase(bag, "g1-evacuate")
        return copied == len(oids)

    # ------------------------------------------------------------------
    def minor_gc(self) -> GCCycle:
        heap = self.heap
        start = self.clock.now
        with self.clock.context(Bucket.MINOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            st = self.store
            space_arr = st.space
            refs_arr = st.refs
            age_arr = st.age
            live = self._trace_young(epoch)
            young = heap.young_regions()
            for region in young:
                st.free_rows(self._split_marked(region, epoch)[1])
                region.reset()
            heap._current_eden = None
            tenuring = TENURING_THRESHOLD
            survivors = [o for o in live if age_arr[o] + 1 < tenuring]
            promoted = [o for o in live if age_arr[o] + 1 >= tenuring]
            # Sized now: the full collection an evacuation failure runs
            # may free some of these rows.
            live_bytes = st.sum_sizes(live)
            promoted_bytes = st.sum_sizes(promoted)
            for oid in live:
                age_arr[oid] += 1
            # Both evacuations run even if the first fails: real G1
            # keeps copying into whatever regions remain (and pays the
            # copy cost) before declaring the scavenge failed.
            survivors_ok = self._evacuate(survivors, RegionState.SURVIVOR)
            promoted_ok = self._evacuate(promoted, RegionState.OLD)
            # Promotion creates old-to-young references no barrier saw;
            # real G1 updates remembered sets during evacuation.
            for oid in promoted:
                if any(space_arr[t] <= SPACE_TO for t in refs_arr[oid]):
                    self.remset_sources.add(oid)
            full_duration = 0.0
            if not (survivors_ok and promoted_ok):
                # Evacuation failure: fall back to a full collection.
                # The fallback is major-GC work — it must not inflate
                # the scavenge pause or the MINOR_GC bucket.
                self.clock.record_event("evacuation_failure", 0.0)
                full_start = self.clock.now
                with self.clock.context(Bucket.MAJOR_GC):
                    self._full_collection()
                full_duration = self.clock.now - full_start
                self.clock.record_event("full_gc", full_duration)
            duration = self.clock.now - start - full_duration
            cycle = GCCycle(
                kind="minor",
                start_time=start,
                duration=duration,
                live_bytes=live_bytes,
                promoted_bytes=promoted_bytes,
            )
            self.apply_parallel_stats(cycle, self._workers)
            self.stats.record(cycle)
            self.clock.record_event("minor_gc", duration)
            return cycle

    # ------------------------------------------------------------------
    def _mark_from_roots(self, epoch: int) -> List[int]:
        """Mark everything reachable from the roots at ``epoch``; returns
        the oids in visit order.  A G1 heap has no H2 rows, so the
        ceiling drops only FREED rows."""
        return self.store.dfs_closure(self.roots.oids(), epoch, SPACE_OLD)

    def _split_marked(self, region: G1Region, epoch: int):
        """The region's (marked, unmarked) oids at ``epoch``, each in
        address order."""
        oids = region.oid_array()
        marked = self.store.epoch_view()[oids] >= epoch
        return oids[marked], oids[~marked]

    def _mark_all(self, epoch: int) -> List[int]:
        """Concurrent marking racing the mutator, closed by a STW remark.

        The marking scan is decomposed at *full* per-object cost and
        scheduled on the concurrent lane set (``ConcGCThreads =
        ParallelGCThreads / CONCURRENT_DIVISOR``, the paper's
        configuration).  The lanes race the ``Bucket.OTHER`` time the
        mutator accrued since the previous cycle ended: marking up to
        that overlap charges nothing to the pause, and only the
        remainder — marking that outruns the mutator — lands in
        ``Bucket.MAJOR_GC``.  The final remark (SATB drain plus root
        re-scan) is a stop-the-world phase on the full worker pool.
        """
        cost = self.cost
        st = self.store
        live = self._mark_from_roots(epoch)
        scan_costs = st.scan_costs(live, cost.gc_visit_cost, cost.gc_ref_cost)
        bag = TaskBag()
        bag.add_batches(
            "g1-mark",
            "scan",
            scan_costs,
            self.config.engine.scan_batch_objects,
        )
        other_now = self.clock.total(Bucket.OTHER)
        budget = max(0.0, other_now - self._concurrent_baseline)
        execution = self.engine.run(
            bag,
            "g1-concurrent-mark",
            workers=self._concurrent_workers,
            concurrent_budget=budget,
        )
        self.note_execution(execution)
        # Consume the overlap window: the next cycle only hides behind
        # mutator progress made after this one.
        self._concurrent_baseline = other_now

        # STW remark: re-examine the roots and drain the SATB-logged
        # fraction of the marking work on the full (paused) pool.
        remark_bag = TaskBag()
        remark_bag.add_batches(
            "g1-remark-roots",
            "root",
            np.full(len(self.roots), cost.gc_root_scan_cost),
            self.config.engine.scan_batch_objects,
        )
        remark_bag.add_batches(
            "g1-remark-satb",
            "scan",
            REMARK_FRACTION * scan_costs,
            self.config.engine.scan_batch_objects,
        )
        remark = self._run_phase(remark_bag, "g1-remark")
        self._last_remark_pause = remark.critical_path
        return live

    def major_gc(self) -> GCCycle:
        """A marking cycle followed by mixed evacuation."""
        heap = self.heap
        start = self.clock.now
        with self.clock.context(Bucket.MAJOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            st = self.store
            epoch_arr = st.mark_epoch
            live = self._mark_all(epoch)
            live_bytes = st.sum_sizes(live)

            # Free dead humongous runs eagerly (no copying needed).
            for region in heap.regions:
                if region.state is RegionState.HUMONGOUS_START:
                    oid = region.oid_array()[0]
                    if epoch_arr[oid] < epoch:
                        # The run is sized from the head's row, so it is
                        # freed before the row is: no reader looks at a
                        # FREED row's size.
                        heap.free_humongous_run(region)
                        st.free_rows([oid])

            # Garbage-first: evacuate the old regions with least live data.
            candidates = []
            for region in heap.old_regions():
                region_live, region_dead = self._split_marked(region, epoch)
                candidates.append(
                    (st.sum_sizes(region_live), region, region_live, region_dead)
                )
            candidates.sort(key=lambda item: item[0])
            budget = int(heap.capacity * MIXED_COLLECTION_FRACTION)
            taken = 0
            for _, region, region_live, region_dead in candidates:
                if taken >= budget:
                    break
                taken += region.capacity
                st.free_rows(region_dead)
                region.reset()
                if not self._evacuate(region_live.tolist(), RegionState.OLD):
                    self._full_collection()
                    break
            duration = self.clock.now - start
            cycle = GCCycle(
                kind="major",
                start_time=start,
                duration=duration,
                live_bytes=live_bytes,
            )
            self.apply_parallel_stats(cycle, self._workers)
            cycle.remark_pause = self._last_remark_pause
            self.stats.record(cycle)
            self.clock.record_event("major_gc", duration)
            return cycle

    # ------------------------------------------------------------------
    def _full_collection(self) -> None:
        """Last-resort full compaction (humongous objects still unmovable)."""
        heap = self.heap
        self.full_collections += 1
        epoch = self.next_epoch()
        cost = self.cost
        st = self.store
        epoch_arr = st.mark_epoch
        marked = self._mark_from_roots(epoch)
        bag = TaskBag()
        # Scan cost honours the object's scan factor, consistent with
        # _trace_young and _mark_all: full GCs must not under-charge
        # scan-heavy objects.
        bag.add_batches(
            "g1-full-mark",
            "scan",
            st.scan_costs(marked, cost.gc_visit_cost, cost.gc_ref_cost),
            self.config.engine.scan_batch_objects,
        )
        # Compact every non-humongous live object into fresh old regions.
        movable: List[int] = []
        for region in heap.regions:
            if region.state in (
                RegionState.HUMONGOUS_START,
                RegionState.HUMONGOUS_CONT,
            ):
                head = region.oid_array()
                if (
                    region.state is RegionState.HUMONGOUS_START
                    and len(head)
                    and epoch_arr[head[0]] < epoch
                ):
                    heap.free_humongous_run(region)
                    st.free_rows(head[:1])
                continue
            live, dead = self._split_marked(region, epoch)
            movable.extend(live.tolist())
            st.free_rows(dead)
            region.reset()
        heap._current_eden = None
        # Sliding the survivors out of their regions before re-placement
        # (the subsequent evacuation pays the copy into fresh regions).
        bag.add_batches(
            "g1-full-compact",
            "compact",
            st.size_view()[np.asarray(movable, dtype=np.int64)]
            / cost.gc_copy_bw,
            self.config.engine.copy_batch_objects,
        )
        self._run_phase(bag, "g1-full-mark")
        if not self._evacuate(movable, RegionState.OLD):
            raise OutOfMemoryError(
                "G1 full collection cannot fit live data "
                "(humongous fragmentation)",
                requested=st.sum_sizes(movable),
            )
        self.remset_sources.clear()
