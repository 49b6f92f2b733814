"""G1: regions, humongous allocation, fragmentation, collections."""

import pytest

from repro import JavaVM, OutOfMemoryError, VMConfig, gb
from repro.clock import Bucket
from repro.config import CostModel
from repro.gc.base import TENURING_THRESHOLD
from repro.gc.g1 import REGION_SIZE, G1Heap, RegionState
from repro.heap.object_model import HeapObject, SpaceId
from repro.units import KiB


def make_vm(heap_gb=4):
    return JavaVM(VMConfig(heap_size=gb(heap_gb), collector="g1"))


class TestG1Heap:
    def test_region_count(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        assert heap.num_regions == heap.capacity // heap.region_size

    def test_small_allocation_in_eden_region(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        o = HeapObject(1024, store=store)
        assert heap.try_allocate(o)
        assert o.space is SpaceId.EDEN
        assert heap.regions[o.region_id].state is RegionState.EDEN

    def test_humongous_threshold(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        assert heap.is_humongous(heap.region_size // 2 + 1)
        assert not heap.is_humongous(heap.region_size // 2)

    def test_humongous_takes_contiguous_run(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        big = HeapObject(heap.region_size + 100, store=store)
        assert heap.try_allocate(big)
        head = heap.regions[big.region_id]
        assert head.state is RegionState.HUMONGOUS_START
        assert (
            heap.regions[head.index + 1].state is RegionState.HUMONGOUS_CONT
        )
        assert heap.humongous_waste > 0

    def test_humongous_waste_counts_toward_usage(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        big = HeapObject(heap.region_size + 100, store=store)
        heap.try_allocate(big)
        assert heap.used() >= 2 * heap.region_size

    def test_free_humongous_run(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        big = HeapObject(heap.region_size + 100, store=store)
        heap.try_allocate(big)
        head = heap.regions[big.region_id]
        heap.free_humongous_run(head)
        assert head.state is RegionState.FREE
        assert heap.regions[head.index + 1].state is RegionState.FREE

    def test_eden_budget_limits_allocation(self, store):
        heap = G1Heap(VMConfig(heap_size=gb(4), collector="g1"), store)
        size = heap.region_size // 2
        allocated = 0
        while heap.try_allocate(HeapObject(size, store=store)):
            allocated += 1
        # Stops at roughly the young target, not at heap exhaustion.
        assert allocated <= heap.young_target * 2 + 2


class TestG1Collector:
    def test_young_collection_reclaims_garbage(self):
        vm = make_vm()
        keep = vm.allocate(1024)
        vm.roots.add(keep)
        for _ in range(200):
            vm.allocate(8 * KiB)
        assert vm.collector.stats.minor_count > 0
        assert keep.space is not SpaceId.FREED

    def test_survivors_eventually_promote(self):
        vm = make_vm()
        keep = vm.allocate(1024)
        vm.roots.add(keep)
        vm.minor_gc()
        vm.minor_gc()
        assert keep.space is SpaceId.OLD

    def test_old_to_young_remset(self):
        vm = make_vm()
        holder = vm.allocate(1024)
        vm.roots.add(holder)
        vm.minor_gc()
        vm.minor_gc()
        assert holder.space is SpaceId.OLD
        young = vm.allocate(512)
        vm.write_ref(holder, young)
        vm.roots.remove(holder)
        vm.minor_gc()
        assert young.space is not SpaceId.FREED

    def test_mixed_collection_frees_dead_old_regions(self):
        vm = make_vm()
        junk = [vm.allocate(8 * KiB) for _ in range(50)]
        for o in junk:
            vm.roots.add(o)
        vm.minor_gc()
        vm.minor_gc()  # promote
        for o in junk:
            vm.roots.remove(o)
        vm.major_gc()
        free = sum(
            1 for r in vm.heap.regions if r.state is RegionState.FREE
        )
        assert free > vm.heap.num_regions // 2

    def test_humongous_fragmentation_oom(self):
        """Long-lived humongous objects exhaust contiguous space (the
        paper's SVM/BC/RL failure mode)."""
        vm = make_vm(heap_gb=2)
        hum_size = vm.heap.region_size + vm.heap.region_size // 2
        with pytest.raises(OutOfMemoryError):
            while True:
                o = vm.allocate(hum_size)
                vm.roots.add(o)

    def test_dead_humongous_reclaimed_eagerly(self):
        vm = make_vm()
        big = vm.allocate(vm.heap.region_size + 100)
        vm.roots.add(big)
        vm.roots.remove(big)
        vm.major_gc()
        assert big.space is SpaceId.FREED

    def test_mixed_collection_is_incremental(self):
        """Garbage-first: a mixed collection evacuates only the emptiest
        old regions, leaving mostly-live regions untouched."""
        vm = make_vm()
        roots = [vm.allocate(8 * KiB) for _ in range(100)]
        for r in roots:
            vm.roots.add(r)
        vm.minor_gc()
        vm.minor_gc()  # promote everything (fully live old regions)
        addresses = {r.oid: r.address for r in roots}
        vm.major_gc()
        unmoved = sum(
            1 for r in roots if r.address == addresses[r.oid]
        )
        # Only up to the mixed-collection fraction of regions moves.
        assert unmoved >= len(roots) // 2


def marking_vm(gc_threads=8, resident=60):
    """A G1 VM with a rooted resident set and a consumed warmup cycle."""
    vm = JavaVM(
        VMConfig(
            heap_size=gb(4),
            collector="g1",
            gc_threads=gc_threads,
        )
    )
    table = vm.roots.add(vm.allocate(16 * KiB))
    for _ in range(resident):
        vm.write_ref(table, vm.allocate(8 * KiB))
    vm.major_gc()  # consumes the setup-allocation overlap window
    return vm


def mark_phase_critical(cycle) -> float:
    return sum(
        rec["critical_s"]
        for rec in cycle.engine_phases
        if rec["phase"] == "g1-concurrent-mark"
    )


def run_major(vm):
    """vm.major_gc() plus the cycle it recorded (the VM wrapper
    returns None)."""
    vm.major_gc()
    return vm.collector.stats.cycles[-1]


class TestConcurrentMarking:
    def test_mutator_heavy_cycle_hides_a_majority_of_marking(self):
        vm = marking_vm()
        vm.compute(50_000)  # plenty of Bucket.OTHER to race against
        cycle = run_major(vm)
        critical = mark_phase_critical(cycle)
        assert critical > 0.0
        assert cycle.concurrent_hidden > 0.5 * critical
        stats = vm.collector.stats
        assert sum(
            c.concurrent_hidden for c in stats.cycles if c.kind == "major"
        ) >= cycle.concurrent_hidden

    def test_back_to_back_majors_hide_nothing(self):
        vm = marking_vm()
        vm.major_gc()  # drains whatever window remained
        cycle = run_major(vm)  # no mutator progress since the last cycle
        assert mark_phase_critical(cycle) > 0.0
        assert cycle.concurrent_hidden == 0.0

    def test_remark_is_a_pause_charged_to_major_gc(self):
        vm = marking_vm()
        vm.compute(50_000)
        major_before = vm.clock.total(Bucket.MAJOR_GC)
        cycle = run_major(vm)
        major_delta = vm.clock.total(Bucket.MAJOR_GC) - major_before
        # Hidden marking never lands in any bucket: the major bucket
        # only grows by the cycle's charged duration, remark included.
        assert major_delta == pytest.approx(cycle.duration)
        assert cycle.remark_pause > 0.0
        assert cycle.remark_pause <= cycle.duration
        assert sum(
            c.remark_pause
            for c in vm.collector.stats.cycles
            if c.kind == "major"
        ) >= cycle.remark_pause

    def test_hidden_marking_shortens_the_pause(self):
        """The same heap shape pauses longer when there is no mutator
        window to hide the marking in."""
        idle = marking_vm()
        idle.major_gc()  # drain the window
        paused = run_major(idle)
        busy = marking_vm()
        busy.major_gc()
        busy.compute(50_000)
        hidden = run_major(busy)
        assert hidden.duration < paused.duration
        assert hidden.concurrent_hidden > 0.0

    def test_concurrent_pool_is_a_quarter_of_the_parallel_pool(self):
        vm = marking_vm(gc_threads=8)
        cycle = run_major(vm)
        recs = [
            r for r in cycle.engine_phases
            if r["phase"] == "g1-concurrent-mark"
        ]
        assert recs and all(r["workers"] == 2 for r in recs)


class TestAccountingFixes:
    """The three attribution bugs: evacuation-failure bucket, full-GC
    scan factor, short-circuited evacuations."""

    def _exhausted_vm(self):
        """A tiny heap one scavenge away from evacuation failure: live
        eden objects (some tenured) and zero free regions."""
        vm = JavaVM(VMConfig(heap_size=16 * REGION_SIZE, collector="g1"))
        threshold = TENURING_THRESHOLD
        for i in range(4):
            obj = vm.roots.add(vm.allocate(4 * KiB, name=f"live-{i}"))
            if i % 2:
                obj.age = threshold  # promotes on the next scavenge
        for region in vm.heap.regions:
            if region.state is RegionState.FREE:
                region.state = RegionState.OLD
        return vm

    def test_evacuation_failure_full_gc_charged_to_major(self):
        vm = self._exhausted_vm()
        minor_before = vm.clock.total(Bucket.MINOR_GC)
        major_before = vm.clock.total(Bucket.MAJOR_GC)
        vm.minor_gc()
        cycle = vm.collector.stats.cycles[-1]
        assert vm.collector.full_collections == 1
        minor_delta = vm.clock.total(Bucket.MINOR_GC) - minor_before
        major_delta = vm.clock.total(Bucket.MAJOR_GC) - major_before
        # The fallback full collection is major-GC work: the scavenge
        # cycle and the MINOR_GC bucket exclude it entirely.
        assert major_delta > 0.0
        assert minor_delta == pytest.approx(cycle.duration)
        events = {name: dur for _, name, dur in vm.clock.events}
        assert "evacuation_failure" in events
        assert events["full_gc"] == pytest.approx(major_delta)

    def test_evacuation_failure_attempts_both_evacuations(self):
        vm = self._exhausted_vm()
        calls = []
        original = vm.collector._evacuate

        def spy(objects, state):
            calls.append((state, len(objects)))
            return original(objects, state)

        vm.collector._evacuate = spy
        vm.minor_gc()
        # Survivor evacuation fails, but the promotion copy still runs
        # (real G1 pays for both before declaring the scavenge failed).
        assert calls[0] == (RegionState.SURVIVOR, 2)
        assert calls[1] == (RegionState.OLD, 2)

    def _full_mark_serial(self, scan_factor):
        vm = JavaVM(VMConfig(heap_size=gb(4), collector="g1"))
        obj = vm.roots.add(vm.allocate(1024))
        obj.scan_factor = scan_factor
        collector = vm.collector
        collector.begin_parallel_cycle()
        with vm.clock.context(Bucket.MAJOR_GC):
            collector._full_collection()
        recs = [
            r for r in collector.engine.phase_log
            if r["phase"] == "g1-full-mark"
        ]
        assert recs
        return recs[-1]["serial_s"]

    def test_full_collection_mark_cost_includes_scan_factor(self):
        base = self._full_mark_serial(1)
        heavy = self._full_mark_serial(4)
        # Only the root object's scan factor differs: the full-GC mark
        # must charge the extra 3 visit-costs it used to drop.
        assert heavy - base == pytest.approx(3 * CostModel().gc_visit_cost)
