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

from itertools import chain
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..clock import Bucket, Clock
from ..config import VMConfig
from ..errors import OutOfMemoryError
from ..heap.heap import ManagedHeap
from ..heap.object_model import HeapObject
from ..heap.roots import RootSet
from ..heap.spaces import Extent
from ..heap.store import (
    NO_SPACE,
    SPACE_EDEN,
    SPACE_OLD,
    SPACE_TO,
    HeapStore,
)
from .base import TENURING_THRESHOLD, Collector, GCCycle
from .engine import (
    ENGINE_SEED,
    GCTaskEngine,
    PhaseExecution,
    TaskBag,
    chunked_sweep,
)


#: A collection compacts the object store once its FREED rows are at
#: least this many times its live ones.  A compaction costs O(rows) and
#: follows at least twice as many frees as there are live rows, so its
#: cost spreads over those frees the way a doubling vector's regrowth
#: spreads over its appends.
STORE_COMPACT_RATIO = 2

# Sliding-compaction sort rank by space code (EDEN, FROM, TO, OLD, H2,
# FREED): old-gen residents keep their address order ahead of any young
# survivors caught by a full GC.
_SPACE_RANK = np.array((1, 2, 3, 0, 4, 4), dtype=np.int8)


def _first_fit(sizes: np.ndarray, room: int) -> np.ndarray:
    """Which of ``sizes`` a first-fit pass over ``room`` bytes takes.

    Equal to the loop ``if used + size <= room: take, used += size`` in
    order: the prefix that fits is found with one cumulative sum, and
    only objects no larger than the gap it leaves are tried after it.
    """
    ends = np.cumsum(sizes)
    fits = ends <= room
    if fits.all():
        return fits
    stop = int(np.argmin(fits))
    fits[stop:] = False
    gap = room - (int(ends[stop - 1]) if stop else 0)
    for i in (np.flatnonzero(sizes[stop:] <= gap) + stop).tolist():
        size = int(sizes[i])
        if size <= gap:
            fits[i] = True
            gap -= size
    return fits


class PromotionFailure(Exception):
    """Internal: a scavenge could not promote; the VM must run a full GC."""


class Movers:
    """Objects a major GC moves to H2, as columns in move order."""

    __slots__ = ("oids", "labels", "nbytes")

    def __init__(self, oids: List[int], labels: List[str], nbytes: int = 0):
        #: mover oids
        self.oids = oids
        #: each mover's group label
        self.labels = labels
        #: bytes placed in H2 (0 until placement)
        self.nbytes = nbytes

    def __len__(self) -> int:
        return len(self.oids)


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
            seed=ENGINE_SEED,
            trace=config.engine.trace,
            name=self.name,
        )

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
    def on_mark_visit(self, obj: HeapObject) -> None:
        """Per-object hook during major marking (Panthera charges NVM I/O)."""

    def on_compact_move(self, obj: HeapObject) -> None:
        """Per-object hook during compaction (Panthera charges NVM I/O)."""

    def on_minor_copy(self, obj: HeapObject) -> None:
        """Per-object hook during scavenge copying (memory-mode charges)."""

    def on_forward_references(self, targets: List[int]) -> None:
        """Called with the H1-to-H2 edge targets major marking found, in
        visit order: first those of the roots, then those of the trace."""

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
        self, live: np.ndarray, live_bytes: int, epoch: int
    ) -> Movers:
        """Choose the objects (and their labels) to transfer to H2."""
        return Movers([], [])

    def after_marking(self, epoch: int) -> None:
        """Free dead H2 regions (end of marking)."""

    def assign_h2_addresses(self, movers: Movers, epoch: int) -> Movers:
        """Pre-compaction for movers: pick region + address per object.

        Returns the movers that actually received an H2 address, with
        their bytes; the rest stay in H1 and compact with the stayers.
        """
        return movers

    def adjust_mover_references(self, movers: Movers) -> None:
        """Record new cross-region and backward references for movers."""

    def adjust_h2_backward_refs(self) -> None:
        """Rewrite H2-resident backward references to new H1 locations."""

    def compact_movers(self, movers: Movers) -> None:
        """Write movers to the device through promotion buffers."""

    def on_major_complete(self, epoch: int) -> None:
        """End-of-major-GC hook: TeraHeap commits its durable epoch here."""

    def oid_extents(self) -> Iterable[Extent]:
        """Every extent whose oids a store compaction renumbers."""
        return self.heap.spaces()

    # ==================================================================
    # Store compaction
    # ==================================================================
    def compact_store(self) -> None:
        """Drop the store's FREED rows once they reach
        :data:`STORE_COMPACT_RATIO` times the live rows.

        Runs at the end of every collection, so the old oids only ever
        live in :meth:`HeapStore.compact` itself and in the holders it
        renumbers: the store's columns and canonical handles, and the
        extents here.  Every other program holder of a row keeps its
        handle, which the compaction renumbers in place.
        """
        st = self.store
        freed = st.freed_rows()
        if not freed or freed < STORE_COMPACT_RATIO * (len(st) - 1 - freed):
            return
        new_of = st.compact()
        for extent in self.oid_extents():
            extent.renumber(new_of)

    # ==================================================================
    # Minor GC
    # ==================================================================
    def minor_gc(self) -> GCCycle:
        heap = self.heap
        cost = self.cost
        eng_cfg = self.config.engine
        # Hot columns of the object store: the card scan and card
        # maintenance below run over raw oids and these flat arrays
        # instead of object handles.
        st = self.store
        space_arr = st.space
        refs_arr = st.refs
        addr_arr = st.address
        start = self.clock.now
        with self.clock.context(Bucket.MINOR_GC):
            epoch = self.next_epoch()
            self.begin_parallel_cycle()
            self.clock.charge(cost.gc_pause_overhead)

            # --- Roots: explicit roots + dirty-card old objects + H2 ----
            bag = TaskBag()
            stack = self.roots.oids()
            bag.add_batches(
                "minor-roots",
                "root",
                np.full(len(stack), cost.gc_root_scan_cost),
                128,
            )
            card_work: Dict[int, float] = {}
            visit_cost = cost.gc_visit_cost
            ref_cost = cost.gc_ref_cost
            cards = list(heap.card_table.dirty_cards())
            ranges = [heap.card_table.card_range(card) for card in cards]
            scanned_cards: List[Tuple[int, List[int]]] = list(zip(
                cards,
                heap.old.oids_overlapping(
                    [lo for lo, _ in ranges], [hi for _, hi in ranges]
                ),
            ))
            for card, on_card in scanned_cards:
                work = 0.0
                for old_oid in on_card:
                    targets = refs_arr[old_oid]
                    work += visit_cost
                    work += ref_cost * len(targets)
                    stack.extend(targets)
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
            stack.extend(self.minor_h2_roots())

            # --- Trace live young objects -------------------------------
            # The ceiling leaves old-gen and H2 objects untraversed.
            live_young = st.dfs_closure(stack, epoch, SPACE_TO)
            bag = TaskBag()
            bag.add_batches(
                "minor-scan",
                "scan",
                st.scan_costs(live_young, visit_cost, ref_cost),
                eng_cfg.scan_batch_objects,
            )
            self._run_phase(bag, "minor-trace")

            # --- Copy phase ----------------------------------------------
            # Survivors are the objects under the tenuring age that still
            # fit in to-space, first fit in trace order; the rest promote.
            to_space = heap.survivor_to
            live = np.asarray(live_young, dtype=np.int64)
            st.age_increment(live)
            sizes = st.size_view()[live]
            young = np.flatnonzero(st.age_view()[live] < TENURING_THRESHOLD)
            stays = np.zeros(live.size, dtype=bool)
            stays[young[_first_fit(sizes[young], to_space.capacity)]] = True
            survivors = live[stays]
            promote = live[~stays]
            if int(sizes[~stays].sum()) > heap.old.free:
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
            st.free_rows(dead)

            heap.eden.reset()
            heap.survivor_from.reset()
            to_space.reset()
            # Survivors were first-fit against the empty to-space's
            # capacity, so all of them fit.
            placed = to_space.place_many(survivors)
            assert placed == survivors.size
            st.space_view()[survivors] = SPACE_TO
            promoted = heap.old.place_many(promote)
            st.space_view()[promote[:promoted]] = SPACE_OLD
            copied = np.concatenate((survivors, promote[:promoted]))
            copy_bag = TaskBag()
            copy_bag.add_batches(
                "minor-copy",
                "copy",
                st.size_view()[copied] / cost.gc_copy_bw,
                eng_cfg.copy_batch_objects,
            )
            if type(self).on_minor_copy is not ParallelScavenge.on_minor_copy:
                for obj in map(st.handle, copied.tolist()):
                    self.on_minor_copy(obj)
            if promoted < promote.size:
                self._run_phase(copy_bag, "minor-copy")
                raise PromotionFailure()
            promoted_bytes = int(st.size_view()[promote].sum())
            heap.swap_survivors()
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
            for oid in promote.tolist():
                if any(space_arr[t] <= SPACE_TO for t in refs_arr[oid]):
                    heap.card_table.mark(addr_arr[oid])

            self.minor_h2_post_copy(set(copied.tolist()))

            duration = self.clock.now - start
            cycle = GCCycle(
                kind="minor",
                start_time=start,
                duration=duration,
                live_bytes=int(sizes.sum()),
                reclaimed_bytes=reclaimed,
                promoted_bytes=promoted_bytes,
                old_occupancy_after=heap.old.occupancy,
            )
            self.apply_parallel_stats(cycle, self.config.gc_threads)
            self.stats.record(cycle)
            self.clock.record_event("minor_gc", duration)
            self.compact_store()
            return cycle

    # ==================================================================
    # Major GC
    # ==================================================================
    def major_gc(self) -> GCCycle:
        heap = self.heap
        cost = self.cost
        workers = self.major_workers()
        batch = self.config.engine
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
                refs_arr = st.refs
                visit_cost = cost.gc_visit_cost
                ref_cost = cost.gc_ref_cost
                handle = st.handle
                # Fences (TeraHeap) get the forward-reference targets as
                # one oid list per pass.
                fences = (
                    type(self).on_forward_references
                    is not ParallelScavenge.on_forward_references
                )
                self.pre_major_mark()
                stack = self.roots.oids()
                if fences:
                    # Stack/static roots referencing H2 directly count as
                    # forward references: they pin the region.
                    self.on_forward_references(
                        [oid for oid in stack if space_arr[oid] > SPACE_OLD]
                    )
                stack.extend(self.major_h2_roots())
                # The ceiling fences H2 (and FREED rows) off, so no edge
                # crosses from H1 into H2.
                live = st.dfs_closure(stack, epoch, SPACE_OLD)
                # Both passes run in visit order.  The visit hook (Panthera,
                # memory mode) only charges devices and the walk charges
                # nothing, so the charges keep their order.  Skipping the
                # no-op default saves a handle lookup per live object.
                if (
                    type(self).on_mark_visit
                    is not ParallelScavenge.on_mark_visit
                ):
                    for oid in live:
                        self.on_mark_visit(handle(oid))
                if fences:
                    self.on_forward_references(
                        [
                            t
                            for t in chain.from_iterable(
                                map(refs_arr.__getitem__, live)
                            )
                            if space_arr[t] > SPACE_OLD
                        ]
                    )
                bag = TaskBag()
                bag.add_batches(
                    "major-mark",
                    "scan",
                    st.scan_costs(live, visit_cost, ref_cost),
                    batch.scan_batch_objects,
                )
                self._run_phase(bag, "major-mark", workers=workers)
                live_arr = np.asarray(live, dtype=np.int64)
                live_bytes = st.sum_sizes(live_arr)
                movers = self.select_h2_movers(live_arr, live_bytes, epoch)
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
                stayers = live_arr
                if len(movers):
                    # Placed movers are the live rows now resident in H2.
                    stayers = stayers[st.space_view()[stayers] <= SPACE_OLD]
                # Sliding compaction: preserve address order so the
                # stable prefix of long-lived data (e.g. the cached
                # partitions at the bottom of the old gen) is not
                # rewritten every major GC.  Rank by space code:
                # OLD first, then EDEN/FROM/TO.  (rank, address) pairs
                # are unique, so the order is total.
                stayers = stayers[
                    np.lexsort(
                        (
                            st.address_view()[stayers],
                            _SPACE_RANK[st.space_view()[stayers]],
                        )
                    )
                ]
                bag = TaskBag()
                bag.add_batches(
                    "major-forward",
                    "precompact",
                    np.full(len(live), cost.gc_forward_cost),
                    batch.precompact_batch_objects,
                )
                sizes = st.size_view()[stayers]
                total_stay = int(sizes.sum())
                room = heap.old.capacity + heap.eden.capacity
                # Stayers fill the old generation first fit in address
                # order; the rest slide into eden.  A gap first fit leaves
                # in old can push eden past its end even when the total
                # fits, so both are out-of-memory.
                fits_old = _first_fit(sizes, heap.old.capacity)
                in_old = stayers[fits_old]
                in_eden = stayers[~fits_old]
                old_sizes = sizes[fits_old]
                eden_sizes = sizes[~fits_old]
                old_addrs = np.cumsum(old_sizes) - old_sizes + heap.old.base
                eden_top = heap.eden.base + int(eden_sizes.sum())
                if total_stay > room or eden_top > heap.eden.end:
                    raise OutOfMemoryError(
                        "live data exceeds heap after full GC",
                        requested=total_stay,
                        available=room,
                    )
                eden_addrs = np.cumsum(eden_sizes) - eden_sizes
                eden_addrs += heap.eden.base
                st.forward_space_view()[in_old] = SPACE_OLD
                st.forward_space_view()[in_eden] = SPACE_EDEN
                self._run_phase(bag, "major-precompact", workers=workers)
            phases["precompact"] = self.clock.now - t0

            # ---------------- Phase 3: pointer adjustment ---------------
            t0 = self.clock.now
            with self.clock.sub_context("adjust"):
                bag = TaskBag()
                bag.add_batches(
                    "major-adjust",
                    "scan",
                    st.scan_costs(live, visit_cost, ref_cost, scaled=False),
                    batch.scan_batch_objects,
                )
                # Backward-reference maintenance first: it reclassifies the
                # cards scanned at marking time, and the mover adjustments
                # that follow may dirty those same cards with *new*
                # backward references that must not be clobbered.
                self.adjust_h2_backward_refs()
                self.adjust_mover_references(movers)
                self._run_phase(bag, "major-adjust", workers=workers)
            phases["adjust"] = self.clock.now - t0

            # ---------------- Phase 4: compaction ------------------------
            t0 = self.clock.now
            with self.clock.sub_context("compact"):
                old_moved = st.address_view()[in_old] != old_addrs
                eden_moved = st.address_view()[in_eden] != eden_addrs
                bag = TaskBag()
                bag.add_batches(
                    "major-compact",
                    "compact",
                    np.concatenate(
                        (
                            st.size_view()[in_old[old_moved]],
                            st.size_view()[in_eden[eden_moved]],
                        )
                    )
                    / cost.gc_copy_bw,
                    batch.copy_batch_objects,
                )
                st.address_view()[in_old] = old_addrs
                st.space_view()[in_old] = SPACE_OLD
                st.address_view()[in_eden] = eden_addrs
                st.space_view()[in_eden] = SPACE_EDEN
                st.forward_space_view()[stayers] = NO_SPACE
                # The hook reads only its own, already final, row.
                if (
                    type(self).on_compact_move
                    is not ParallelScavenge.on_compact_move
                ):
                    for oid in in_old[old_moved].tolist():
                        self.on_compact_move(handle(oid))
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
                    st.free_rows(dead)
                heap.survivor_from.reset()
                heap.survivor_to.reset()
                heap.old.rebuild_after_compaction(
                    in_old, heap.old.base + int(old_sizes.sum())
                )
                heap.eden.rebuild_after_compaction(in_eden, eden_top)
                # Card table: after a full GC only old objects referencing
                # (overflowed) eden objects need dirty cards.
                heap.card_table.clear_all()
                if in_eden.size:
                    addr_arr = st.address
                    for oid in in_old.tolist():
                        if any(
                            space_arr[t] <= SPACE_TO for t in refs_arr[oid]
                        ):
                            heap.card_table.mark(addr_arr[oid])
            phases["compact"] = self.clock.now - t0

            self.on_major_complete(epoch)
            duration = self.clock.now - start
            cycle = GCCycle(
                kind="major",
                start_time=start,
                duration=duration,
                live_bytes=live_bytes,
                moved_to_h2_bytes=movers.nbytes,
                old_occupancy_after=heap.old.occupancy,
                phases=phases,
            )
            self.apply_parallel_stats(cycle, workers)
            self.stats.record(cycle)
            self.clock.record_event("major_gc", duration)
            self.compact_store()
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
