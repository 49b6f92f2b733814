"""The paper's future-work extensions: adaptive thresholds (§7.2),
size-aware H2 placement (§7.3), DataFrame/Dataset APIs, trace export,
the CLI, and Giraph vertex offloading."""

import pytest

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.sql_api import Dataset, Schema, read_table
from repro.heap.object_model import SpaceId
from repro.metrics import trace
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
                        high_threshold=0.6,
                        low_threshold=0.4,
                        adaptive_thresholds=adaptive,
                    ),
                    page_cache_size=gb(1),
                )
            )
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
# DataFrame / Dataset API
# ---------------------------------------------------------------------
class TestDataFrameAPI:
    def make_ctx(self, th=False):
        thc = (
            TeraHeapConfig(enabled=True, h2_size=gb(64), region_size=64 * KiB)
            if th
            else TeraHeapConfig()
        )
        vm = JavaVM(
            VMConfig(heap_size=gb(8), teraheap=thc, page_cache_size=gb(2))
        )
        return SparkContext(
            vm,
            SparkConf(
                cache_policy=(
                    CachePolicy.TERAHEAP if th else CachePolicy.SD
                ),
                offheap_device=NVMeSSD(vm.clock),
            ),
        )

    def test_schema_projection(self):
        schema = Schema([("a", 8), ("b", 100), ("c", 20)])
        projected = schema.project(["a", "c"])
        assert projected.column_names() == ["a", "c"]
        assert projected.row_bytes == 28

    def test_select_shrinks_rows(self):
        ctx = self.make_ctx()
        df = read_table(
            ctx, gb(2), Schema([("k", 8), ("v", 120)]), name="t"
        )
        small = df.select("k")
        assert small.rdd.size_bytes < df.rdd.size_bytes

    def test_where_selectivity_validated(self):
        ctx = self.make_ctx()
        df = read_table(ctx, gb(1))
        with pytest.raises(ValueError):
            df.where(0.0)

    def test_join_shuffles_and_widens(self):
        ctx = self.make_ctx()
        left = read_table(ctx, gb(1), Schema([("k", 8), ("a", 56)]))
        right = read_table(ctx, gb(1), Schema([("k", 8), ("b", 56)]))
        joined = left.join(right)
        assert ctx.shuffle_manager.shuffles >= 2
        assert len(joined.schema.columns) == 4

    def test_cached_dataframe_migrates_to_h2(self):
        ctx = self.make_ctx(th=True)
        df = read_table(ctx, gb(1)).where(0.5).persist()
        df.count()
        ctx.vm.major_gc()
        entry = ctx.block_manager.entries[(df.rdd.rdd_id, 0)]
        assert entry.partition.root.space is SpaceId.H2

    def test_dataset_typed_overhead(self):
        ctx = self.make_ctx()
        ds = Dataset(read_table(ctx, gb(1)).rdd, Schema([("k", 8)]))
        mapped = ds.map_elements(2)
        assert isinstance(mapped, Dataset)
        assert mapped.rdd.compute_ops_per_chunk > 2

    def test_group_by_reduces(self):
        ctx = self.make_ctx()
        df = read_table(ctx, gb(2))
        grouped = df.group_by(reduction=0.1)
        assert grouped.rdd.size_bytes < df.rdd.size_bytes


# ---------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------
class TestTraceExport:
    def test_gc_timeline_csv(self):
        vm = JavaVM(VMConfig(heap_size=gb(4)))
        root = vm.allocate(4 * KiB)
        vm.roots.add(root)
        vm.minor_gc()
        vm.major_gc()
        csv_text = trace.gc_timeline_csv(vm.collector.stats.cycles)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("kind,start_time_s")
        assert len(lines) == 3  # header + 2 cycles
        assert lines[1].startswith("minor,")
        assert lines[2].startswith("major,")

    def test_region_liveness_csv(self):
        from repro.teraheap.regions import RegionLiveness

        csv_text = trace.region_liveness_csv(
            [RegionLiveness(10, 5, 8000, 4000, 16384)]
        )
        assert "0.5000" in csv_text


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
