"""The paper's future-work extensions: adaptive thresholds (§7.2),
size-aware H2 placement (§7.3), the CLI, and Giraph vertex
offloading."""

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.teraheap.thresholds import AdaptiveThresholdPolicy
from repro.units import KiB

from helpers import make_group


# ---------------------------------------------------------------------
# Adaptive thresholds (§7.2 future work)
# ---------------------------------------------------------------------
class TestAdaptiveThresholds:
    def test_single_spike_does_not_tighten(self):
        policy = AdaptiveThresholdPolicy(heap_capacity=1000)
        policy.decide(live_bytes=950)  # one pressure event (e.g. loading)
        assert policy.high_threshold == 0.85

    def test_sustained_pressure_tightens_thresholds(self):
        policy = AdaptiveThresholdPolicy(heap_capacity=1000)
        for _ in range(policy.PRESSURE_WINDOW):
            policy.decide(live_bytes=950)
        assert policy.high_threshold < 0.85
        assert policy.low_threshold < 0.50

    def test_calm_relaxes_back(self):
        policy = AdaptiveThresholdPolicy(heap_capacity=1000)
        for _ in range(policy.PRESSURE_WINDOW):
            policy.decide(950)
        tightened = policy.high_threshold
        for _ in range(policy.CALM_WINDOW):
            policy.decide(100)
        assert policy.high_threshold > tightened

    def test_never_exceeds_configured(self):
        policy = AdaptiveThresholdPolicy(heap_capacity=1000)
        for _ in range(20):
            policy.decide(100)
        assert policy.high_threshold <= policy.configured_high

    def test_floor_respected(self):
        policy = AdaptiveThresholdPolicy(heap_capacity=1000)
        for _ in range(50):
            policy.decide(990)
        assert policy.high_threshold >= policy.MIN_HIGH
        assert policy.low_threshold < policy.high_threshold

    def test_wired_into_collector(self):
        vm = JavaVM(
            VMConfig(
                heap_size=gb(4),
                teraheap=TeraHeapConfig(
                    enabled=True,
                    h2_size=gb(32),
                    region_size=16 * KiB,
                    adaptive_thresholds=True,
                ),
            )
        )
        assert isinstance(vm.collector.policy, AdaptiveThresholdPolicy)

    def test_adaptive_avoids_repeat_pressure(self):
        """After pressure fires once, the tightened threshold transfers
        earlier, so sustained allocation does not re-trigger it as often."""
        counts = {}
        for adaptive in (False, True):
            vm = JavaVM(
                VMConfig(
                    heap_size=gb(2),
                    teraheap=TeraHeapConfig(
                        enabled=True,
                        h2_size=gb(64),
                        region_size=16 * KiB,
                        low_threshold=0.4,
                        adaptive_thresholds=adaptive,
                    ),
                    page_cache_size=gb(1),
                )
            )
            vm.collector.policy.high_threshold = 0.6
            if adaptive:
                vm.collector.policy.configured_high = 0.6
            for i in range(6):
                root, _ = make_group(vm, count=40, size=4 * KiB, name=f"g{i}")
                vm.h2_tag_root(root, f"g{i}")
                vm.major_gc()
            counts[adaptive] = vm.collector.policy.pressure_transfers
        assert counts[True] <= counts[False]


# ---------------------------------------------------------------------
# Size-aware placement (§7.3 future work)
# ---------------------------------------------------------------------
class TestSizeAwarePlacement:
    def make_vm(self, size_aware):
        return JavaVM(
            VMConfig(
                heap_size=gb(8),
                teraheap=TeraHeapConfig(
                    enabled=True,
                    h2_size=gb(64),
                    region_size=16 * KiB,
                    size_aware_placement=size_aware,
                ),
                page_cache_size=gb(2),
            )
        )

    def build_mixed_group(self, vm):
        with vm.roots.frame() as frame:
            small = [frame.push(vm.allocate(512)) for _ in range(20)]
            large = [frame.push(vm.allocate(6 * KiB)) for _ in range(4)]
            root = vm.allocate(256, refs=small + large)
        vm.roots.add(root)
        return root, small, large

    def test_large_objects_segregated(self):
        vm = self.make_vm(True)
        root, small, large = self.build_mixed_group(vm)
        vm.h2_tag_root(root, "mix")
        vm.h2_move("mix")
        vm.major_gc()
        small_regions = {o.region_id for o in small}
        large_regions = {o.region_id for o in large}
        assert not (small_regions & large_regions)

    def test_default_keeps_group_together(self):
        vm = self.make_vm(False)
        root, small, large = self.build_mixed_group(vm)
        vm.h2_tag_root(root, "mix")
        vm.h2_move("mix")
        vm.major_gc()
        # Some region holds both small and large members.
        small_regions = {o.region_id for o in small}
        large_regions = {o.region_id for o in large}
        assert small_regions & large_regions


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
class TestCLI:
    def test_list(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "table5" in out

    def test_table5(self, capsys):
        from repro.__main__ import main

        assert main(["table5"]) == 0
        assert "417" in capsys.readouterr().out

    def test_barrier(self, capsys):
        from repro.__main__ import main

        assert main(["barrier"]) == 0
        assert "overhead" in capsys.readouterr().out


# ---------------------------------------------------------------------
# Giraph vertex offloading
# ---------------------------------------------------------------------
class TestVertexOffload:
    def test_offload_and_reload_vertices(self):
        from repro.frameworks.giraph import (
            GiraphConf,
            GiraphJob,
            GiraphMode,
            PageRankProgram,
        )
        from repro.workloads.generators import make_graph

        graph = make_graph(gb(2), num_vertices=200, avg_degree=4, seed=7)
        vm = JavaVM(VMConfig(heap_size=gb(8), page_cache_size=gb(2)))
        conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
        job = GiraphJob(vm, conf, graph)
        job.load_graph()
        freed, to_write = job.offload_vertices(0)
        assert freed > 0
        assert to_write > 0  # vertex values are mutable: always rewritten
        assert job.vertex_objs[0] is None
        # The next superstep touching partition 0 reloads transparently.
        job.run(PageRankProgram(graph, iterations=2))
        assert job.vertex_objs[0] is not None
