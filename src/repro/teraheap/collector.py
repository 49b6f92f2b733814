"""TeraHeap's extension of the Parallel Scavenge collector (Section 4).

Minor GC gains two tasks: fencing the scavenge from crossing into H2, and
scanning the H2 card table for backward references (dirty + youngGen
cards) so H1 survivors referenced from H2 are kept alive and the
references adjusted.

Major GC extends all four PS phases:

- *marking*: reset region live bits; treat H1 objects referenced from H2
  as roots; fence H1-to-H2 edges while setting region live bits (with
  dependency-list propagation); compute the transitive closure of tagged
  root key-objects; free dead regions at the end.
- *pre-compaction*: assign H2 addresses (region by label) to movers.
- *adjustment*: adjust backward references, record new cross-region
  references, and mark new backward references dirty.
- *compaction*: write movers to the device through promotion buffers.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..clock import Clock
from ..config import VMConfig
from ..errors import DeviceFullError, SegmentationFault, SimulatedCrash
from ..faults.events import CrashEvent
from ..gc.engine import TaskBag, chunked_sweep
from ..gc.parallel_scavenge import Movers, ParallelScavenge
from ..heap.heap import ManagedHeap
from ..heap.object_model import HeapObject
from ..heap.roots import RootSet
from ..heap.spaces import Extent
from ..heap.store import (
    FLAG_H2_CANDIDATE,
    FLAG_METADATA,
    FLAG_REFERENCE,
    NO_SPACE,
    SPACE_FREED,
    SPACE_H2,
    SPACE_OLD,
    SPACE_TO,
    HeapStore,
)
from .h2_card_table import CardState
from .h2_heap import H2Heap
from .hints import HintInterface
from .promotion import DIRECT_WRITE_THRESHOLD
from .thresholds import AdaptiveThresholdPolicy, ThresholdPolicy

#: H2 card-table entries per sweep-chunk task (H2 tables are huge)
H2_SWEEP_CHUNK_CARDS = 16384
#: scanned H2 cards are grouped into this many stripe-owned slices
H2_SLICE_GROUPS = 64


class TeraHeapCollector(ParallelScavenge):
    """Parallel Scavenge + TeraHeap (the paper's system)."""

    name = "teraheap"

    def __init__(
        self,
        heap: ManagedHeap,
        roots: RootSet,
        clock: Clock,
        config: VMConfig,
        store: HeapStore,
        h2: H2Heap,
        hints: HintInterface,
        governor=None,
    ):
        super().__init__(heap, roots, clock, config, store)
        self.h2 = h2
        self.hints = hints
        #: optional :class:`~repro.teraheap.governor.H2Governor`
        self.governor = governor
        policy_cls = (
            AdaptiveThresholdPolicy
            if config.teraheap.adaptive_thresholds
            else ThresholdPolicy
        )
        self.policy = policy_cls(
            heap_capacity=config.heap_size,
            low_threshold=config.teraheap.low_threshold,
            use_move_hint=config.teraheap.use_move_hint,
            governor=governor,
        )
        self.four_state = config.teraheap.four_state_cards
        #: forward (H1->H2) references fenced per GC, Section 7.4 metric
        self.forward_refs_fenced = 0
        #: backward-reference card segments scanned during minor GC
        self.h2_cards_scanned_minor = 0
        #: movers denied an H2 address (device full / degraded H2)
        self.h2_transfers_denied = 0
        #: scanned H2 cards as (card, resident oids) pairs
        self._minor_scanned: List[Tuple[int, List[int]]] = []
        self._major_scanned: List[Tuple[int, List[int]]] = []
        self._moved_labels: Set[str] = set()
        #: per-cycle placement outcome, reported to the governor at the
        #: end of every major GC
        self._cycle_denied = 0
        self._cycle_placed_bytes = 0

    # ==================================================================
    # Card scanning helpers
    # ==================================================================
    def _scan_h2_cards(
        self, major: bool
    ) -> Tuple[List[int], List[Tuple[int, List[int]]]]:
        """Scan the H2 card table; return (H1 roots, scanned cards).

        Checking the conceptual table costs one check per card (the table
        is a DRAM byte array); each to-scan card additionally loads its
        segment's objects from the device and inspects their references.
        The sweep and the per-card scans are decomposed into engine tasks
        — sweep chunks plus stripe-owned card slices — and scheduled over
        at most ``scan_parallelism`` workers, so stripe ownership bounds
        the parallelism exactly as in the striped table design (§3.4).
        Device reads (``scan_load``) stay serial: bandwidth is not
        divisible by GC threads.
        """
        table = self.h2.card_table
        cost = self.cost
        parallelism = table.scan_parallelism(self.config.gc_threads)
        bag = TaskBag()
        chunked_sweep(
            bag,
            "h2-sweep",
            table.num_cards,
            cost.card_check_cost,
            H2_SWEEP_CHUNK_CARDS,
        )
        cards = table.cards_to_scan(major=major)
        if not self.four_state and not major:
            # Two-state ablation: oldGen knowledge is unavailable, so
            # minor GC must also rescan segments that only reference the
            # old generation.
            extra = [
                idx
                for idx, st in table.iter_states()
                if st is CardState.OLD_GEN
            ]
            cards = sorted(set(cards) | set(extra))
        st = self.store
        space_arr = st.space
        refs_arr = st.refs
        region_arr = st.region_id
        visit_cost = cost.gc_visit_cost
        ref_cost = cost.gc_ref_cost
        roots: List[int] = []
        scanned: List[Tuple[int, List[int]]] = []
        slice_work: Dict[int, float] = {}
        for card in cards:
            lo, hi = table.card_range(card)
            region = self.h2.region_at(lo)
            if region is None or region.is_empty:
                table.set_state(card, CardState.CLEAN)
                continue
            on_card = region.oids_overlapping((lo,), (hi,))[0]
            # Reading device-resident objects to inspect their references.
            self.h2.scan_load(lo, hi - lo)
            card_work = 0.0
            for oid in on_card:
                targets = refs_arr[oid]
                card_work += visit_cost + ref_cost * len(targets)
                own_region = region_arr[oid]
                for t in targets:
                    code = space_arr[t]
                    if code <= SPACE_OLD:
                        if major or code <= SPACE_TO:
                            roots.append(t)
                    elif (
                        code == SPACE_H2
                        and region_arr[t] != own_region
                    ):
                        # A mutator created this cross-region reference
                        # after the move; install the dependency edge
                        # before the card can be cleaned, so region
                        # liveness propagates correctly.
                        self.h2.record_cross_region_ref(
                            own_region, region_arr[t]
                        )
            # Scanned cards become stripe-owned slice tasks: a slice
            # starts on its owning worker's deque and only migrates to
            # another worker by stealing.
            group = table.stripe_of_card(card) % H2_SLICE_GROUPS
            slice_work[group] = slice_work.get(group, 0.0) + card_work
            scanned.append((card, on_card))
        for group in sorted(slice_work):
            bag.add(
                f"h2-slice-{group}",
                slice_work[group],
                kind="h2scan",
                affinity=group,
            )
        phase = "h2-major-scan" if major else "h2-minor-scan"
        self._run_phase(bag, phase, workers=parallelism)
        return roots, scanned

    def _classify_card(self, oids: List[int]) -> CardState:
        """Post-scan card state from the segment's backward references."""
        space_arr = self.store.space
        refs_arr = self.store.refs
        has_young = False
        has_old = False
        for oid in oids:
            for t in refs_arr[oid]:
                code = space_arr[t]
                if code <= SPACE_TO:
                    has_young = True
                elif code == SPACE_OLD:
                    has_old = True
        if has_young:
            return CardState.YOUNG_GEN
        if has_old:
            if self.four_state:
                return CardState.OLD_GEN
            return CardState.DIRTY
        return CardState.CLEAN

    # ==================================================================
    # Minor GC hooks
    # ==================================================================
    def minor_h2_roots(self) -> List[int]:
        with self.clock.sub_context("h2_minor_scan"):
            roots, self._minor_scanned = self._scan_h2_cards(major=False)
        self.h2_cards_scanned_minor += len(self._minor_scanned)
        space_arr = self.store.space
        return [r for r in roots if space_arr[r] <= SPACE_TO]

    def minor_h2_post_copy(self, relocated: Set[int]) -> None:
        """Adjust backward references to relocated survivors and install
        the new card states."""
        table = self.h2.card_table
        refs_arr = self.store.refs
        with self.clock.sub_context("h2_minor_scan"):
            for card, oids in self._minor_scanned:
                lo, hi = table.card_range(card)
                needs_adjust = any(
                    t in relocated
                    for oid in oids
                    for t in refs_arr[oid]
                )
                if needs_adjust:
                    # Rewriting pointers inside device-resident objects.
                    self.h2.scan_store(lo, hi - lo)
                table.set_state(card, self._classify_card(oids))
        self._minor_scanned = []
        if self.config.teraheap.writeback_policy == "flush":
            # Eager durability: mutator stores to H2 become durable at
            # every minor GC instead of waiting for the next commit.
            with self.clock.sub_context("h2_writeback"):
                self.h2._io("h2_msync", self.h2.mapping.msync)

    # ==================================================================
    # Major GC hooks
    # ==================================================================
    def pre_major_mark(self) -> None:
        self.h2.reset_live_bits()

    def major_h2_roots(self) -> List[int]:
        roots, self._major_scanned = self._scan_h2_cards(major=True)
        return roots

    def on_forward_references(self, targets: List[int]) -> None:
        """Fence H1-to-H2 edges: count them and set region live bits.

        Dependency lists do not change while marking traces, so marking
        the distinct target regions live in one walk sets the same live
        bits as one call per edge.  A reclaimed target faults at the
        first such edge; the edges before it stay fenced.
        """
        if not targets:
            return
        st = self.store
        idx = np.asarray(targets, dtype=np.int64)
        freed = np.flatnonzero(st.space_view()[idx] == SPACE_FREED)
        fenced = idx if not freed.size else idx[: int(freed[0])]
        self.forward_refs_fenced += int(fenced.size)
        regions = st.region_view()[fenced]
        self.h2.mark_regions_live(dict.fromkeys(regions[regions >= 0].tolist()))
        if freed.size:
            raise SegmentationFault(
                "live H1 object references reclaimed H2 object "
                f"#{targets[int(freed[0])]}"
            )

    def select_h2_movers(
        self, live: np.ndarray, live_bytes: int, epoch: int
    ) -> Movers:
        if (
            self.h2.resilience is not None
            and self.h2.resilience.degraded
        ):
            # Graceful degradation: H2 transfers are disabled, objects
            # stay in H1 (the serialization-fallback baseline).  Tagged
            # candidates keep their labels in case H2 recovers in a
            # future configuration.
            return Movers([], [])
        cost = self.cost
        st = self.store
        space_arr = st.space
        epoch_arr = st.mark_epoch
        refs_arr = st.refs
        flags_arr = st.flags
        label_list = st.label
        visit_cost = cost.gc_visit_cost
        ref_cost = cost.gc_ref_cost
        # --- transitive closure of tagged root key-objects --------------
        # A stack-pop walk like HeapStore.dfs_closure, kept apart because
        # it claims labels and skips by flags instead of marking epochs.
        skip = FLAG_H2_CANDIDATE | FLAG_METADATA | FLAG_REFERENCE
        groups: Dict[str, List[int]] = {}
        claimed: List[int] = []
        for root in self.hints.tagged_roots():
            root_oid = root.oid
            if epoch_arr[root_oid] < epoch or space_arr[root_oid] > SPACE_OLD:
                continue  # dead or already-moved roots do not transfer
            label = label_list[root_oid]
            members = groups.setdefault(label, [])
            # Every target is pushed; the pop-time check skips the ones
            # already tagged or outside H1, which flags only ever gain
            # during the walk, so the visit order is that of pushing
            # only untagged H1 targets.
            stack = [root_oid]
            pop = stack.pop
            push = stack.extend
            while stack:
                oid = pop()
                # Tagged objects belong to a group already; JVM metadata
                # and java.lang.ref.Reference objects are excluded from
                # the closure (Section 3.2).
                if space_arr[oid] > SPACE_OLD or flags_arr[oid] & skip:
                    continue
                current = label_list[oid]
                if current is not None and current != label:
                    continue  # claimed by another group first
                label_list[oid] = label
                flags_arr[oid] |= FLAG_H2_CANDIDATE
                members.append(oid)
                claimed.append(oid)
                push(refs_arr[oid])
        bag = TaskBag()
        bag.add_batches(
            "h2-closure",
            "scan",
            st.scan_costs(claimed, visit_cost, ref_cost, scaled=False),
            self.config.engine.scan_batch_objects,
        )
        self._run_phase(bag, "h2-closure", workers=self.major_workers())

        # Include groups tagged in earlier GCs but not yet transferred,
        # in live order.
        tagged = live[(st.flags_view()[live] & FLAG_H2_CANDIDATE) != 0]
        if claimed and tagged.size:
            tagged = tagged[~np.isin(tagged, claimed)]
        for oid in tagged.tolist():
            label = label_list[oid]
            if label is not None:
                groups.setdefault(label, []).append(oid)

        # --- transfer decision ------------------------------------------
        decision = self.policy.decide(live_bytes)
        size_arr = st.size
        oids: List[int] = []
        labels: List[str] = []
        moved_labels: Set[str] = set()

        def take(label: str, budget: Optional[int]) -> Optional[int]:
            """Move the label's group while ``budget`` bytes (None: no
            cap) last; returns the budget left."""
            members = groups.pop(label)
            count = len(members)
            if budget is not None:
                count = 0
                for oid in members:
                    if budget <= 0:
                        break
                    count += 1
                    budget -= size_arr[oid]
            oids.extend(members[:count])
            labels.extend([label] * count)
            if count == len(members):
                moved_labels.add(label)
            # Untaken members keep their candidate tag and move at a
            # later GC (or with their h2_move hint).
            return budget

        if decision.move_hinted:
            # The governor may cap hinted bytes (circuit open / half-open
            # probe); None means unlimited, the normal case.  A partially
            # moved hinted label keeps its pending hint and candidate
            # tags; the rest follows once the circuit allows it.
            hinted_budget = decision.hinted_budget
            for label in list(groups):
                if hinted_budget is not None and hinted_budget <= 0:
                    break
                if self.hints.is_move_pending(label):
                    hinted_budget = take(label, hinted_budget)
        if decision.move_unhinted and groups:
            # Pressure transfer: move marked objects oldest-label-first
            # until the byte budget runs out (the low threshold, §3.2).
            # Later labels — typically the still-mutable current message
            # store — stay in H1 until their own hint arrives.
            budget = decision.unhinted_budget
            for label in list(groups):
                if budget is not None and budget <= 0:
                    break
                budget = take(label, budget)
        self._moved_labels = moved_labels
        # Whatever was not selected keeps its candidate tag and waits for
        # its h2_move() or for heap pressure.
        if oids:
            marked = st.epoch_view()[oids] >= epoch
            if not marked.all():
                keep = marked.tolist()
                oids = list(compress(oids, keep))
                labels = list(compress(labels, keep))
        return Movers(oids, labels)

    def after_marking(self, epoch: int) -> None:
        self.h2.reclaim_dead_regions(epoch)

    def assign_h2_addresses(self, movers: Movers, epoch: int) -> Movers:
        """Place movers in H2; returns the subset that actually got an
        address.

        A mover denied by a device-full condition keeps its candidate
        tag and falls back to H1 compaction this cycle; the denial is
        charged against the resilience failure budget (device-full is
        not retryable), so repeated denials degrade H2 gracefully
        instead of aborting the collection.
        """
        res = self.h2.resilience

        def on_denied(exc: DeviceFullError) -> bool:
            """Handle one denial; True denies the cycle's other movers."""
            if getattr(exc, "budget_denial", False):
                # An arbiter-imposed byte budget, not a sick device: the
                # movers fall back to H1 this cycle, but the denial must
                # not burn the resilience failure budget — the quota may
                # well grow back next epoch.
                return True
            if res is None:
                raise exc
            res.note_failure("h2_assign_address", exc)
            # Circuit-breaker fail-fast: with a governor one denial is
            # evidence enough.  Skipping the cycle's remaining movers
            # (they keep their candidate tags) protects the legacy
            # failure budget the governor supersedes and lets the
            # circuit trip before the budget burns.
            return self.governor is not None or res.degraded

        if res is not None and res.degraded:
            placed = Movers([], [])
        else:
            placed = Movers(
                *self.h2.place_objects(
                    movers.oids, movers.labels, epoch, on_denied
                )
            )
        denied = len(movers) - len(placed)
        self.h2_transfers_denied += denied
        self._cycle_denied = denied
        self._cycle_placed_bytes = placed.nbytes
        return placed

    def adjust_mover_references(self, movers: Movers) -> None:
        table = self.h2.card_table
        st = self.store
        space_arr = st.space
        refs_arr = st.refs
        region_arr = st.region_id
        addr_arr = st.address
        fwd_space_arr = st.forward_space
        for oid in movers.oids:
            own_region = region_arr[oid]
            for t in refs_arr[oid]:
                if space_arr[t] == SPACE_H2 and region_arr[t] != own_region:
                    self.h2.record_cross_region_ref(
                        own_region, region_arr[t]
                    )
                elif fwd_space_arr[t] != NO_SPACE:
                    # New backward (H2 -> H1) reference: the target is a
                    # stayer, forwarded in pre-compaction.
                    table.mark_dirty(addr_arr[oid])

    def adjust_h2_backward_refs(self) -> None:
        """Rewrite backward references to compacted H1 locations and
        reclassify the scanned cards."""
        table = self.h2.card_table
        st = self.store
        space_arr = st.space
        refs_arr = st.refs
        region_arr = st.region_id
        fwd_space_arr = st.forward_space
        for card, _ in self._major_scanned:
            lo, hi = table.card_range(card)
            region = self.h2.region_at(lo)
            if region is None or region.is_empty:
                # The segment's region was reclaimed during marking.
                table.set_state(card, CardState.CLEAN)
                continue
            # Recompute the segment's contents: pre-compaction may have
            # placed fresh movers into this card since the marking scan.
            oids = region.oids_overlapping((lo,), (hi,))[0]
            has_backward = any(
                space_arr[t] <= SPACE_OLD or fwd_space_arr[t] != NO_SPACE
                for oid in oids
                for t in refs_arr[oid]
            )
            if has_backward:
                self.h2.scan_store(lo, hi - lo)
            # A backward-referenced H1 object may itself have moved to H2
            # this cycle: the reference is now cross-region and must enter
            # the dependency lists before its tracking card goes clean.
            for oid in oids:
                if space_arr[oid] != SPACE_H2:
                    continue
                own_region = region_arr[oid]
                for t in refs_arr[oid]:
                    if (
                        space_arr[t] == SPACE_H2
                        and region_arr[t] != own_region
                    ):
                        self.h2.record_cross_region_ref(
                            own_region, region_arr[t]
                        )
            state = self._classify_after_major(oids)
            table.set_state(card, state)
        self._major_scanned = []

    def _classify_after_major(self, oids: List[int]) -> CardState:
        st = self.store
        space_arr = st.space
        refs_arr = st.refs
        fwd_space_arr = st.forward_space
        has_young = False
        has_old = False
        for oid in oids:
            if space_arr[oid] == SPACE_FREED:
                continue
            for t in refs_arr[oid]:
                # The post-compaction space: forwarded targets classify
                # by destination.
                code = fwd_space_arr[t]
                if code == NO_SPACE:
                    code = space_arr[t]
                if code <= SPACE_TO:
                    has_young = True
                elif code == SPACE_OLD:
                    has_old = True
        if has_young:
            return CardState.YOUNG_GEN
        if has_old:
            return CardState.OLD_GEN if self.four_state else CardState.DIRTY
        return CardState.CLEAN

    def mover_copy_batches(
        self, movers: List[Tuple[HeapObject, str]]
    ) -> List[List[Tuple[HeapObject, str]]]:
        """Split movers into copy batches matching promotion-buffer flushes.

        Movers are grouped per destination region (each region owns one
        promotion buffer) and chunked so every batch's bytes fit one
        buffer fill — the batch boundaries land exactly where
        :class:`~repro.teraheap.promotion.PromotionManager` flushes.
        Objects at or above the direct-write threshold bypass the buffer
        and form single-object batches, mirroring the direct-write path.
        """
        capacity = self.config.teraheap.promotion_buffer_size
        by_region: Dict[int, List[Tuple[HeapObject, str]]] = {}
        order: List[int] = []
        for obj, label in movers:
            if obj.region_id not in by_region:
                order.append(obj.region_id)
                by_region[obj.region_id] = []
            by_region[obj.region_id].append((obj, label))
        batches: List[List[Tuple[HeapObject, str]]] = []
        for region_index in order:
            batch: List[Tuple[HeapObject, str]] = []
            batch_bytes = 0
            for obj, label in by_region[region_index]:
                if obj.size >= DIRECT_WRITE_THRESHOLD:
                    if batch:
                        batches.append(batch)
                        batch, batch_bytes = [], 0
                    batches.append([(obj, label)])
                    continue
                if batch and batch_bytes + obj.size > capacity:
                    batches.append(batch)
                    batch, batch_bytes = [], 0
                batch.append((obj, label))
                batch_bytes += obj.size
            if batch:
                batches.append(batch)
        return batches

    def _region_grouped(self, oids: List[int]) -> np.ndarray:
        """``oids`` grouped by destination region (regions in order of
        first appearance, objects in order within each): the order
        :meth:`mover_copy_batches` writes them in."""
        idx = np.asarray(oids, dtype=np.int64)
        regions = self.store.region_view()[idx]
        if idx.size < 2 or bool((regions[1:] >= regions[:-1]).all()):
            return idx
        _, first, inverse = np.unique(
            regions, return_index=True, return_inverse=True
        )
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        return idx[np.argsort(rank[inverse], kind="stable")]

    def compact_movers(self, movers: Movers) -> None:
        res = self.h2.resilience
        plan = res.plan if res is not None else None
        if plan is None or not plan.crash_armed:
            self.h2.write_objects(self._region_grouped(movers.oids))
        else:
            # Mover copy cost is the device write itself (the CPU copy
            # into the promotion buffer overlaps it), so batches only
            # shape crash granularity — they add no charge of their own.
            handle = self.store.handle
            batches = self.mover_copy_batches(
                list(zip(map(handle, movers.oids), movers.labels))
            )
            for seq, batch in enumerate(batches):
                if plan.crash_outcome("major_compact"):
                    # Killed between copy batches: buffered-but-unflushed
                    # objects and all DRAM metadata die with the process.
                    log = self.h2.page_cache.resilience_log
                    if log is not None:
                        log.record(
                            CrashEvent(
                                self.clock.now,
                                "major_compact",
                                f"batch {seq} of {len(batch)} objects",
                            )
                        )
                    raise SimulatedCrash(
                        "simulated kill mid major-GC compaction "
                        f"(copy batch {seq})",
                        safepoint="major_compact",
                        op_index=plan.op_index,
                    )
                self.h2.write_objects([obj.oid for obj, _ in batch])
        self.h2.finish_compaction()
        if self._moved_labels:
            self.hints.consume_moved(self._moved_labels)
            self._moved_labels = set()

    def on_major_complete(self, epoch: int) -> None:
        """Commit the durable epoch and report placement to the governor."""
        if self.config.teraheap.writeback_policy != "none":
            with self.clock.sub_context("h2_commit"):
                self.h2.commit_epoch(
                    epoch,
                    note=self.h2.checkpoint_note,
                    fsync_cost=self.cost.fsync_cost,
                )
        if self.governor is not None:
            # Circuit feedback: a clean probe cycle is the evidence that
            # lets an OPEN circuit start closing again.
            self.governor.note_transfer_result(
                self._cycle_placed_bytes, self._cycle_denied
            )
        self._cycle_denied = 0
        self._cycle_placed_bytes = 0

    def oid_extents(self) -> Iterable[Extent]:
        """H1's spaces, then every H2 region."""
        return chain(super().oid_extents(), self.h2.regions.values())
