"""Dataset generators and result reporting."""

import numpy as np
import pytest

from repro import JavaVM, VMConfig, gb
from repro.metrics.report import ExperimentResult, collect_result
from repro.workloads.generators import make_graph


class TestGraphGenerator:
    def test_sized_to_target(self):
        g = make_graph(gb(4), num_vertices=500)
        assert g.total_bytes() == pytest.approx(gb(4), rel=0.15)

    def test_deterministic_per_seed(self):
        a = make_graph(gb(2), num_vertices=300, seed=9)
        b = make_graph(gb(2), num_vertices=300, seed=9)
        assert a.num_edges == b.num_edges
        assert all(
            np.array_equal(x, y) for x, y in zip(a.out_edges, b.out_edges)
        )

    def test_different_seeds_differ(self):
        a = make_graph(gb(2), num_vertices=300, seed=1)
        b = make_graph(gb(2), num_vertices=300, seed=2)
        assert a.num_edges != b.num_edges or any(
            not np.array_equal(x, y)
            for x, y in zip(a.out_edges, b.out_edges)
        )

    def test_no_self_loops(self):
        g = make_graph(gb(1), num_vertices=200)
        for v, targets in enumerate(g.out_edges):
            assert v not in targets

    def test_every_vertex_has_an_edge(self):
        g = make_graph(gb(1), num_vertices=200)
        assert all(len(e) >= 1 for e in g.out_edges)

    def test_power_law_skew(self):
        """Hubs attract edges: the top decile receives a large share."""
        g = make_graph(gb(2), num_vertices=500, avg_degree=8)
        targets = np.concatenate(g.out_edges)
        hub_share = (targets < 50).mean()
        assert hub_share > 0.2

    def test_edge_array_size_positive(self):
        g = make_graph(gb(1), num_vertices=100)
        assert all(
            g.edge_array_size(v) >= 64 for v in range(g.num_vertices)
        )


class TestReporting:
    def test_collect_result_from_vm(self):
        vm = JavaVM(VMConfig(heap_size=gb(4)))
        vm.allocate(1024)
        vm.minor_gc()
        r = collect_result(vm, "PR", "spark-sd", dram_gb=32, heap_gb=16)
        assert r.total > 0
        assert r.minor_gcs == 1
        assert not r.oom
        assert set(r.breakdown) == {"other", "sd_io", "minor_gc", "major_gc", "alloc_stall"}

    def test_share(self):
        r = ExperimentResult(
            "PR", "x", 1, 1, total=10.0, breakdown={"other": 5.0}
        )
        assert r.share("other") == 0.5
        assert r.share("sd_io") == 0.0

    def test_oom_row(self):
        r = ExperimentResult("PR", "x", 32, 16, oom=True)
        assert "OOM" in r.row()

    def test_share_zero_total(self):
        r = ExperimentResult("PR", "x", 1, 1)
        assert r.share("other") == 0.0
