"""Parallel Scavenge: copying minor GC + four-phase mark-compact major GC.

Models the OpenJDK8 PS collector the paper extends (Section 4):

- **Minor GC** scavenges eden + from-space, using the root set, dirty H1
  cards (old-to-young references) and — under TeraHeap — backward
  references found in the H2 card table.  Survivors copy to to-space or
  promote to the old generation.
- **Major GC** runs marking, pre-compaction (forwarding-address
  assignment), pointer adjustment and compaction.  TeraHeap extends every
  phase via the hook methods this class exposes.

Costs: CPU work is decomposed into tasks — root-set partitions,
dirty-card chunks, object-scan batches, copy batches, forwarding and
compaction batches — and scheduled on the task-based parallel GC engine
(:mod:`repro.gc.engine`): simulated worker threads pull from per-thread
deques with seeded work stealing, and the pause is charged the critical
path over the worker lanes.  Device I/O still charges the clock directly
(bandwidth is not divisible by threads).  OpenJDK8 PS collects the old
generation single-threaded (Section 6), so major-GC phases run on one
worker; the "ps11" flavour models the optimised jdk11 collector with
partial old-generation parallelism (ParallelOld).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..clock import Bucket, Clock
from ..config import VMConfig
from ..errors import OutOfMemoryError
from ..heap.heap import ManagedHeap
from ..heap.object_model import HeapObject, SpaceId
from ..heap.roots import RootSet
from ..heap.store import (
    NO_SPACE,
    SPACE_EDEN,
    SPACE_FREED,
    SPACE_OLD,
    SPACE_TO,
    HeapStore,
)
from .base import Collector, GCCycle
from .engine import (
    BatchController,
    GCTaskEngine,
    PhaseExecution,
    TaskBag,
    chunked_sweep,
)


# Sliding-compaction sort rank by space code (EDEN, FROM, TO, OLD, H2,
# FREED): old-gen residents keep their address order ahead of any young
# survivors caught by a full GC.
_SPACE_RANK = (1, 2, 3, 0, 4, 4)


class PromotionFailure(Exception):
    """Internal: a scavenge could not promote; the VM must run a full GC."""


class ParallelScavenge(Collector):
    """The PS collector over a :class:`ManagedHeap`."""

    name = "ps"

    def __init__(
        self,
        heap: ManagedHeap,
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
        self.engine = GCTaskEngine(
            clock,
            config.cost,
            workers=config.gc_threads,
            seed=config.engine.seed,
            trace=config.engine.trace,
            name=self.name,
            steal_policy=config.engine.steal_policy,
            numa_nodes=config.engine.numa_nodes,
        )
        self.batch = BatchController(config.engine)

    def major_workers(self) -> int:
        """GC threads collecting the old generation (jdk8 PS: one)."""
        return 1

    def _run_phase(
        self, bag: TaskBag, phase: str, workers: Optional[int] = None
    ) -> PhaseExecution:
        """Schedule one phase's task bag and record its execution."""
        execution = self.engine.run(bag, phase, workers=workers)
        self.note_execution(execution)
        return execution

    # ==================================================================
    # TeraHeap hook points (no-ops in plain PS)
    # ==================================================================
    def is_fenced(self, obj: HeapObject) -> bool:
        """True when traversal must not cross into ``obj`` (H2 residents)."""
        return obj.space in (SpaceId.H2, SpaceId.FREED)

    def on_mark_visit(self, obj: HeapObject) -> None:
        """Per-object hook during major marking (Panthera charges NVM I/O)."""

    def on_compact_move(self, obj: HeapObject) -> None:
        """Per-object hook during compaction (Panthera charges NVM I/O)."""

    def on_minor_copy(self, obj: HeapObject) -> None:
        """Per-object hook during scavenge copying (memory-mode charges)."""

    def on_forward_reference(self, target: HeapObject) -> None:
        """Called for each H1-to-H2 edge found during major marking."""

    def minor_h2_roots(self) -> List[int]:
        """Oids of young H1 objects kept alive by H2 backward references."""
        return []

    def minor_h2_post_copy(self, relocated: Set[int]) -> None:
        """Reclassify/adjust H2 cards after the copy phase."""

    def pre_major_mark(self) -> None:
        """Reset H2 region live bits (start of marking)."""

    def major_h2_roots(self) -> List[int]:
        """Oids of H1 objects referenced from H2, via the H2 card table."""
        return []

    def select_h2_movers(
        self, live_oids: List[int], live_bytes: int, epoch: int
    ) -> "List[Tuple[HeapObject, str]]":
        """Choose (object, label) pairs to transfer to H2 this GC."""
        return []

    def after_marking(self, epoch: int) -> None:
        """Free dead H2 regions (end of marking)."""

    def assign_h2_addresses(
        self, movers: "List[Tuple[HeapObject, str]]", epoch: int
    ) -> "List[Tuple[HeapObject, str]]":
        """Pre-compaction for movers: pick region + address per object.

        Returns the movers that actually received an H2 address; the
        rest stay in H1 and compact with the stayers.
        """
        return movers

    def adjust_mover_references(
        self, movers: "List[Tuple[HeapObject, str]]", stayers: Set[int]
    ) -> None:
        """Record new cross-region and backward references for movers."""

    def adjust_h2_backward_refs(self) -> None:
        """Rewrite H2-resident backward references to new H1 locations."""

    def compact_movers(self, movers: "List[Tuple[HeapObject, str]]") -> None:
        """Write movers to the device through promotion buffers."""

    def on_major_complete(self, epoch: int) -> None:
        """End-of-major-GC hook: TeraHeap commits its durable epoch here."""

    # ==================================================================
    # Minor GC
    # ==================================================================
    def minor_gc(self) -> GCCycle:
        heap = self.heap
        cost = self.cost
        eng_cfg = self.config.engine
        # Hot columns of the object store: the trace/copy loops below run
        # over raw oids and these flat arrays instead of object handles.
        st = self.store
        space_arr = st.space
        epoch_arr = st.mark_epoch
        refs_arr = st.refs
        size_arr = st.size
        sf_arr = st.scan_factor
        age_arr = st.age
        addr_arr = st.address
        visit_cost = cost.gc_visit_cost
        ref_cost = cost.gc_ref_cost
        start = self.clock.now
        with self.clock.context(Bucket.MINOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            self.clock.charge(cost.gc_pause_overhead)

            # --- Roots: explicit roots + dirty-card old objects + H2 ----
            bag = TaskBag()
            root_oids: List[int] = []
            root_scan = bag.batcher("minor-roots", "root", 128)
            for obj in self.roots:
                root_scan.add(cost.gc_root_scan_cost)
                if space_arr[obj.oid] <= SPACE_TO:
                    root_oids.append(obj.oid)
            root_scan.flush()
            scanned_cards: List[Tuple[int, List[int]]] = []
            card_work: Dict[int, float] = {}
            for card in heap.card_table.dirty_cards():
                lo, hi = heap.card_table.card_range(card)
                on_card = [
                    o.oid for o in heap.old.objects_overlapping(lo, hi)
                ]
                scanned_cards.append((card, on_card))
                work = 0.0
                for old_oid in on_card:
                    targets = refs_arr[old_oid]
                    work += visit_cost
                    work += ref_cost * len(targets)
                    for t in targets:
                        if space_arr[t] <= SPACE_TO:
                            root_oids.append(t)
                card_work[card] = work
            chunked_sweep(
                bag,
                "h1-cards",
                heap.card_table.num_cards,
                cost.card_check_cost,
                eng_cfg.card_chunk_cards,
                extra=card_work,
            )
            self._run_phase(bag, "minor-roots")
            root_oids.extend(self.minor_h2_roots())

            # --- Trace live young objects -------------------------------
            # Order-preserving DFS kernel: exact stack-pop order of the
            # old per-object traversal, because the scan batcher folds
            # per-visit costs into engine tasks *in visit order* and the
            # determinism digests gate on the resulting schedule.
            bag = TaskBag()
            scan = bag.batcher(
                "minor-scan", "scan", self.batch.scan_batch_objects
            )
            live_young: List[int] = []
            stack = [oid for oid in root_oids if space_arr[oid] <= SPACE_TO]
            while stack:
                oid = stack.pop()
                if epoch_arr[oid] >= epoch:
                    continue
                epoch_arr[oid] = epoch
                live_young.append(oid)
                targets = refs_arr[oid]
                scan.add(
                    visit_cost * sf_arr[oid] + ref_cost * len(targets)
                )
                for t in targets:
                    if space_arr[t] <= SPACE_TO and epoch_arr[t] < epoch:
                        stack.append(t)
                    # Old-gen and H2 targets are not traversed in a
                    # scavenge; H2 targets are additionally fenced.
            scan.flush()
            self._run_phase(bag, "minor-trace")

            # --- Copy phase ----------------------------------------------
            copy_bag = TaskBag()
            copier = copy_bag.batcher(
                "minor-copy", "copy", self.batch.copy_batch_objects
            )
            to_space = heap.survivor_to
            promote: List[int] = []
            survivors: List[int] = []
            planned_survivor_bytes = 0
            tenuring = self.config.tenuring_threshold
            for oid in live_young:
                age_arr[oid] += 1
                size = size_arr[oid]
                if (
                    age_arr[oid] < tenuring
                    and planned_survivor_bytes + size <= to_space.capacity
                ):
                    survivors.append(oid)
                    planned_survivor_bytes += size
                else:
                    promote.append(oid)
            if st.sum_sizes(promote) > heap.old.free:
                # Promotion failure: abandon the scavenge, caller runs a
                # full collection instead.  Root and trace work is already
                # charged; no copying happened yet.
                raise PromotionFailure()

            # Vectorized dead sweep: everything in eden/from not marked
            # this epoch is garbage.
            young_oids = np.concatenate(
                (heap.eden.oid_array(), heap.survivor_from.oid_array())
            )
            dead = young_oids[~st.live_mask(young_oids, epoch)]
            reclaimed = st.sum_sizes(dead)
            st.set_space_batch(dead, SPACE_FREED)

            heap.eden.reset()
            heap.survivor_from.reset()
            to_space.reset()
            copy_hook = (
                None
                if type(self).on_minor_copy
                is ParallelScavenge.on_minor_copy
                else self.on_minor_copy
            )
            relocated: Set[int] = set()
            handle = st.handle
            for oid in survivors:
                if not to_space.allocate(handle(oid)):
                    promote.append(oid)
                    continue
                copier.add(size_arr[oid] / cost.gc_copy_bw)
                relocated.add(oid)
                if copy_hook is not None:
                    copy_hook(handle(oid))
            promoted_bytes = 0
            for oid in promote:
                if not heap.old.allocate(handle(oid)):
                    copier.flush()
                    self._run_phase(copy_bag, "minor-copy")
                    raise PromotionFailure()
                copier.add(size_arr[oid] / cost.gc_copy_bw)
                promoted_bytes += size_arr[oid]
                relocated.add(oid)
                if copy_hook is not None:
                    copy_hook(handle(oid))
            heap.swap_survivors()
            copier.flush()
            self._run_phase(copy_bag, "minor-copy")

            # --- Card maintenance ---------------------------------------
            # Precise cleaning: a scanned card stays dirty only if its
            # objects still reference young objects; promoted objects that
            # reference young survivors dirty their new cards.
            for card, on_card in scanned_cards:
                # A scanned card stays dirty while any object overlapping
                # it still references a young object (scans re-trace the
                # full reference set of every overlapping object, so the
                # card itself is the right thing to keep dirty — marking
                # the first object's header card instead would lose
                # coverage when objects span card boundaries).
                if any(
                    space_arr[t] <= SPACE_TO
                    for old_oid in on_card
                    for t in refs_arr[old_oid]
                ):
                    continue
                heap.card_table.clear(card)
            for oid in promote:
                if any(space_arr[t] <= SPACE_TO for t in refs_arr[oid]):
                    heap.card_table.mark(addr_arr[oid])

            self.minor_h2_post_copy(relocated)

            duration = self.clock.now - start
            cycle = GCCycle(
                kind="minor",
                start_time=start,
                duration=duration,
                live_bytes=st.sum_sizes(live_young),
                reclaimed_bytes=reclaimed,
                promoted_bytes=promoted_bytes,
                old_occupancy_after=heap.old.occupancy,
            )
            self.apply_parallel_stats(cycle, self.config.gc_threads)
            self.stats.record(cycle)
            self.clock.record_event("minor_gc", duration)
            return cycle

    # ==================================================================
    # Major GC
    # ==================================================================
    def major_gc(self) -> GCCycle:
        heap = self.heap
        cost = self.cost
        eng_cfg = self.config.engine
        workers = self.major_workers()
        start = self.clock.now
        phases: Dict[str, float] = {}
        with self.clock.context(Bucket.MAJOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            self.clock.charge(cost.gc_pause_overhead)

            # ---------------- Phase 1: marking --------------------------
            t0 = self.clock.now
            with self.clock.sub_context("marking"):
                st = self.store
                space_arr = st.space
                epoch_arr = st.mark_epoch
                refs_arr = st.refs
                sf_arr = st.scan_factor
                visit_cost = cost.gc_visit_cost
                ref_cost = cost.gc_ref_cost
                handle = st.handle
                # Hook dispatch: hoisting the no-op defaults out of the
                # trace loop saves a handle lookup per visit; subclasses
                # that override (Panthera NVM charges, TeraHeap fences)
                # still see every object they used to.
                visit_hook = (
                    None
                    if type(self).on_mark_visit
                    is ParallelScavenge.on_mark_visit
                    else self.on_mark_visit
                )
                fwd_hook = (
                    None
                    if type(self).on_forward_reference
                    is ParallelScavenge.on_forward_reference
                    else self.on_forward_reference
                )
                bag = TaskBag()
                mark = bag.batcher(
                    "major-mark", "scan", self.batch.scan_batch_objects
                )
                self.pre_major_mark()
                stack: List[int] = []
                for obj in self.roots:
                    if obj.in_h1:
                        stack.append(obj.oid)
                    elif self.is_fenced(obj):
                        # Stack/static roots referencing H2 directly count
                        # as forward references: they pin the region.
                        self.on_forward_reference(obj)
                stack.extend(self.major_h2_roots())
                # Order-preserving DFS kernel over the store's columns:
                # identical stack-pop visit order (and therefore batch
                # boundaries and engine schedules) to the old per-object
                # traversal.  The fence check is inlined: H2/FREED codes
                # sort above every H1 code.
                live: List[int] = []
                while stack:
                    oid = stack.pop()
                    if epoch_arr[oid] >= epoch or space_arr[oid] > SPACE_OLD:
                        continue
                    epoch_arr[oid] = epoch
                    live.append(oid)
                    targets = refs_arr[oid]
                    mark.add(
                        visit_cost * sf_arr[oid] + ref_cost * len(targets)
                    )
                    if visit_hook is not None:
                        visit_hook(handle(oid))
                    for t in targets:
                        if space_arr[t] > SPACE_OLD:
                            # Fence: never cross from H1 into H2.
                            if fwd_hook is not None:
                                fwd_hook(handle(t))
                            continue
                        if epoch_arr[t] < epoch:
                            stack.append(t)
                mark.flush()
                self._run_phase(bag, "major-mark", workers=workers)
                live_bytes = st.sum_sizes(live)
                movers = self.select_h2_movers(live, live_bytes, epoch)
                self.after_marking(epoch)
            phases["marking"] = self.clock.now - t0

            # ---------------- Phase 2: pre-compaction -------------------
            t0 = self.clock.now
            with self.clock.sub_context("precompact"):
                # H2 placement runs first: a mover can be denied an H2
                # address (device full, degraded H2) and must then be
                # treated as a stayer, so the stayer set is only known
                # after placement.
                movers = self.assign_h2_addresses(movers, epoch)
                mover_ids = {obj.oid for obj, _ in movers}
                # Sliding compaction: preserve address order so the
                # stable prefix of long-lived data (e.g. the cached
                # partitions at the bottom of the old gen) is not
                # rewritten every major GC.  Rank by space code:
                # OLD first, then EDEN/FROM/TO.
                size_arr = st.size
                addr_arr = st.address
                fwd_addr_arr = st.forward_address
                fwd_space_arr = st.forward_space
                space_rank = _SPACE_RANK
                stayers = sorted(
                    (oid for oid in live if oid not in mover_ids),
                    key=lambda oid: (
                        space_rank[space_arr[oid]],
                        addr_arr[oid],
                    ),
                )
                bag = TaskBag()
                forward = bag.batcher(
                    "major-forward",
                    "precompact",
                    self.batch.precompact_batch_objects,
                )
                for _ in live:
                    forward.add(cost.gc_forward_cost)
                forward.flush()
                total_stay = st.sum_sizes(stayers)
                if total_stay > heap.old.capacity + heap.eden.capacity:
                    raise OutOfMemoryError(
                        "live data exceeds heap after full GC",
                        requested=total_stay,
                        available=heap.old.capacity + heap.eden.capacity,
                    )
                old_cursor = heap.old.base
                eden_cursor = heap.eden.base
                in_old: List[int] = []
                in_eden: List[int] = []
                old_end = heap.old.end
                for oid in stayers:
                    size = size_arr[oid]
                    if old_cursor + size <= old_end:
                        fwd_addr_arr[oid] = old_cursor
                        fwd_space_arr[oid] = SPACE_OLD
                        old_cursor += size
                        in_old.append(oid)
                    else:
                        fwd_addr_arr[oid] = eden_cursor
                        fwd_space_arr[oid] = SPACE_EDEN
                        eden_cursor += size
                        in_eden.append(oid)
                self._run_phase(bag, "major-precompact", workers=workers)
            phases["precompact"] = self.clock.now - t0

            # ---------------- Phase 3: pointer adjustment ---------------
            t0 = self.clock.now
            with self.clock.sub_context("adjust"):
                bag = TaskBag()
                adjust = bag.batcher(
                    "major-adjust", "scan", self.batch.scan_batch_objects
                )
                for oid in live:
                    adjust.add(visit_cost + ref_cost * len(refs_arr[oid]))
                adjust.flush()
                stayer_ids = set(stayers)
                # Backward-reference maintenance first: it reclassifies the
                # cards scanned at marking time, and the mover adjustments
                # that follow may dirty those same cards with *new*
                # backward references that must not be clobbered.
                self.adjust_h2_backward_refs()
                self.adjust_mover_references(movers, stayer_ids)
                self._run_phase(bag, "major-adjust", workers=workers)
            phases["adjust"] = self.clock.now - t0

            # ---------------- Phase 4: compaction ------------------------
            t0 = self.clock.now
            with self.clock.sub_context("compact"):
                bag = TaskBag()
                compact = bag.batcher(
                    "major-compact", "compact", self.batch.copy_batch_objects
                )
                move_hook = (
                    None
                    if type(self).on_compact_move
                    is ParallelScavenge.on_compact_move
                    else self.on_compact_move
                )
                copy_bw = cost.gc_copy_bw
                for oid in in_old:
                    fwd = fwd_addr_arr[oid]
                    moved = addr_arr[oid] != fwd
                    addr_arr[oid] = fwd
                    space_arr[oid] = SPACE_OLD
                    fwd_addr_arr[oid] = -1
                    fwd_space_arr[oid] = NO_SPACE
                    if moved:
                        compact.add(size_arr[oid] / copy_bw)
                        if move_hook is not None:
                            move_hook(handle(oid))
                for oid in in_eden:
                    fwd = fwd_addr_arr[oid]
                    moved = addr_arr[oid] != fwd
                    addr_arr[oid] = fwd
                    space_arr[oid] = SPACE_EDEN
                    fwd_addr_arr[oid] = -1
                    fwd_space_arr[oid] = NO_SPACE
                    if moved:
                        compact.add(size_arr[oid] / copy_bw)
                compact.flush()
                self._run_phase(bag, "major-compact", workers=workers)
                self.compact_movers(movers)

                # Install post-compaction space contents.  Dead sweeps are
                # vectorized: order does not matter for bulk space flips.
                for space in (
                    heap.eden,
                    heap.survivor_from,
                    heap.survivor_to,
                    heap.old,
                ):
                    oids = space.oid_array()
                    dead = oids[~st.live_mask(oids, epoch)]
                    st.set_space_batch(dead, SPACE_FREED)
                heap.eden.reset()
                heap.survivor_from.reset()
                heap.survivor_to.reset()
                heap.old.rebuild_after_compaction(
                    [handle(oid) for oid in in_old]
                )
                heap.eden.objects = [handle(oid) for oid in in_eden]
                heap.eden.top = (
                    addr_arr[in_eden[-1]] + size_arr[in_eden[-1]]
                    if in_eden
                    else heap.eden.base
                )
                # Card table: after a full GC only old objects referencing
                # (overflowed) eden objects need dirty cards.
                heap.card_table.clear_all()
                if in_eden:
                    for oid in in_old:
                        if any(
                            space_arr[t] <= SPACE_TO for t in refs_arr[oid]
                        ):
                            heap.card_table.mark(addr_arr[oid])
            phases["compact"] = self.clock.now - t0

            self.on_major_complete(epoch)
            duration = self.clock.now - start
            moved_bytes = sum(o.size for o, _ in movers)
            cycle = GCCycle(
                kind="major",
                start_time=start,
                duration=duration,
                live_bytes=live_bytes,
                moved_to_h2_bytes=moved_bytes,
                old_occupancy_after=heap.old.occupancy,
                phases=phases,
            )
            self.apply_parallel_stats(cycle, workers)
            self.stats.record(cycle)
            self.clock.record_event("major_gc", duration)
            return cycle


class ParallelScavengeJDK11(ParallelScavenge):
    """The optimised PS shipped with OpenJDK11 (Figure 8 baseline).

    jdk11's PS collects the old generation with parallel compaction
    (ParallelOld), which the paper's jdk8 configuration ran
    single-threaded; we model that as a small pool of old-gen workers.
    """

    name = "ps11"

    def major_workers(self) -> int:
        return min(self.config.gc_threads, 4)
