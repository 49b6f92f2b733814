"""Post-write barriers: card marking, range check, overhead claim."""

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.experiments import barrier as barrier_exp
from repro.heap.object_model import SpaceId
from repro.units import KiB


def test_old_gen_store_dirties_card():
    vm = JavaVM(VMConfig(heap_size=gb(4)))
    holder = vm.allocate(1024)
    vm.roots.add(holder)
    vm.minor_gc()
    vm.minor_gc()
    assert holder.space is SpaceId.OLD
    young = vm.allocate(64)
    before = vm.heap.card_table.dirty_count
    vm.write_ref(holder, young)
    assert vm.heap.card_table.dirty_count > before


def test_young_store_does_not_dirty_card():
    vm = JavaVM(VMConfig(heap_size=gb(4)))
    a, b = vm.allocate(64), vm.allocate(64)
    vm.write_ref(a, b)
    assert vm.heap.card_table.dirty_count == 0


def test_barrier_counts():
    vm = JavaVM(VMConfig(heap_size=gb(4)))
    a, b = vm.allocate(64), vm.allocate(64)
    for _ in range(10):
        vm.write_ref(a, b)
    assert vm.barrier.barrier_count == 10


def test_teraheap_range_check_costs_extra():
    plain = JavaVM(VMConfig(heap_size=gb(4)))
    th = JavaVM(
        VMConfig(
            heap_size=gb(4),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(32), region_size=16 * KiB
            ),
        )
    )
    for vm in (plain, th):
        a, b = vm.allocate(64), vm.allocate(64)
        snap = vm.clock.snapshot()
        vm.write_ref(a, b)
        vm._delta = snap.delta(vm.clock)["other"]
    assert th._delta > plain._delta


def test_barrier_overhead_within_paper_bound():
    """Section 4: <=3% on DaCapo-style pointer churn; zero when off."""
    result = barrier_exp.run(operations=4000)
    assert 0.0 <= result.overhead <= 0.03
    assert result.teraheap_barriers == result.baseline_barriers
