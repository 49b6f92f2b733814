"""Panthera and Memory-mode collectors (the NVM baselines)."""

import pytest

from repro import JavaVM, VMConfig, gb
from repro.config import PantheraConfig
from repro.devices.nvm import NVM, NVMMemoryMode
from repro.heap.object_model import SpaceId
from repro.units import KiB


def make_panthera(heap_gb=4, dram_old_gb=0.5):
    config = VMConfig(
        heap_size=gb(heap_gb),
        collector="panthera",
        panthera=PantheraConfig(dram_old_size=gb(dram_old_gb)),
        young_fraction=1.0 / 6.0,
    )
    vm = JavaVM(config)
    vm.heap.pretenure_threshold = 32 * KiB
    nvm = NVM(vm.clock)
    vm.old_gen_device = nvm
    vm.collector.nvm = nvm
    return vm, nvm


class TestPanthera:
    def test_pretenure_large_objects(self):
        vm, _ = make_panthera()
        big = vm.allocate(64 * KiB)
        assert big.space is SpaceId.OLD

    def test_small_objects_stay_young(self):
        vm, _ = make_panthera()
        small = vm.allocate(1024)
        assert small.space is SpaceId.EDEN

    def test_nvm_boundary_classification(self):
        vm, _ = make_panthera()
        collector = vm.collector
        inside = vm.allocate(64 * KiB)
        assert inside.space is SpaceId.OLD
        # Objects below the DRAM component boundary are not "on NVM".
        assert collector.on_nvm(inside) == (
            inside.address >= collector.nvm_boundary
        )

    def test_major_gc_charges_nvm_for_old_scan(self):
        vm, nvm = make_panthera(dram_old_gb=0.01)
        objs = [vm.allocate(64 * KiB) for _ in range(20)]
        for o in objs:
            vm.roots.add(o)
        vm.major_gc()
        assert nvm.traffic.bytes_read > 0
        assert vm.collector.nvm_objects_scanned > 0

    def test_mutator_read_of_nvm_object_pays_nvm(self):
        vm, nvm = make_panthera(dram_old_gb=0.01)
        # Fill the small DRAM component; later objects land on NVM.
        objs = [vm.allocate(64 * KiB) for _ in range(3)]
        for o in objs:
            vm.roots.add(o)
        nvm_resident = objs[-1]
        assert vm.collector.on_nvm(nvm_resident)
        before = nvm.traffic.bytes_read
        vm.read_object(nvm_resident)
        assert nvm.traffic.bytes_read > before

    def test_requires_panthera_config(self):
        from repro.gc.panthera import PantheraCollector
        from repro.heap.heap import ManagedHeap
        from repro.heap.roots import RootSet
        from repro.clock import Clock
        from repro.heap.store import HeapStore

        cfg = VMConfig(heap_size=gb(4))
        with pytest.raises(ValueError):
            PantheraCollector(
                ManagedHeap(cfg, HeapStore()), RootSet(), Clock(), cfg,
                HeapStore(),
                nvm=None,
            )


class TestMemoryMode:
    def make_vm(self):
        return JavaVM(VMConfig(heap_size=gb(4), collector="memmode"))

    def test_device_auto_constructed(self):
        vm = self.make_vm()
        assert isinstance(vm.old_gen_device, NVMMemoryMode)

    def test_mutator_reads_blend_through_device(self):
        vm = self.make_vm()
        o = vm.allocate(8 * KiB)
        before = vm.clock.now
        vm.read_object(o)
        assert vm.clock.now > before

    def test_gc_pays_memory_mode_costs(self):
        vm = self.make_vm()
        plain = JavaVM(VMConfig(heap_size=gb(4), collector="ps"))
        for target in (vm, plain):
            roots = [target.allocate(8 * KiB) for _ in range(50)]
            for r in roots:
                target.roots.add(r)
            target.major_gc()
        mm_major = vm.clock.breakdown()["major_gc"]
        ps_major = plain.clock.breakdown()["major_gc"]
        assert mm_major > ps_major

    def test_working_set_refreshed_at_gc(self):
        vm = self.make_vm()
        vm.allocate(8 * KiB)
        vm.minor_gc()
        assert vm.old_gen_device.working_set >= 0
