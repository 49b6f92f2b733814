"""Mini-Giraph: programs, BSP job, message stores, OOC, TeraHeap mode."""

import numpy as np
import pytest

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.giraph import (
    BFSProgram,
    CDLPProgram,
    GiraphConf,
    GiraphJob,
    GiraphMode,
    PageRankProgram,
    SSSPProgram,
    WCCProgram,
)
from repro.frameworks.giraph.job import EDGES_LABEL, NUM_PARTITIONS
from repro.frameworks.giraph.workloads import (
    GIRAPH_PROGRAMS,
    make_giraph_graph,
    run_giraph,
)
from repro.heap.object_model import SpaceId
from repro.units import KiB
from repro.workloads.generators import make_graph


@pytest.fixture
def graph():
    return make_graph(gb(2), num_vertices=200, avg_degree=4, seed=1)


def make_vm(heap_gb=8, th=False):
    thc = (
        TeraHeapConfig(enabled=True, h2_size=gb(64), region_size=16 * KiB)
        if th
        else TeraHeapConfig()
    )
    return JavaVM(
        VMConfig(heap_size=gb(heap_gb), teraheap=thc, page_cache_size=gb(2))
    )


class TestPrograms:
    def test_pagerank_converges_to_distribution(self, graph):
        prog = PageRankProgram(graph, iterations=5)
        senders = prog.initial_senders()
        for s in range(prog.max_supersteps):
            received = prog._messages_from(senders)
            senders, done = prog.superstep(s, received, senders)
            if done:
                break
        assert prog.ranks.sum() == pytest.approx(1.0, rel=0.3)
        assert (prog.ranks >= 0).all()

    def test_wcc_assigns_component_labels(self, graph):
        prog = WCCProgram(graph)
        senders = prog.initial_senders()
        for s in range(prog.max_supersteps):
            received = prog._messages_from(senders)
            senders, done = prog.superstep(s, received, senders)
            if done:
                break
        assert done
        # Labels are component minima: every label <= its vertex id.
        assert (prog.components <= np.arange(graph.num_vertices)).all()

    def test_bfs_distances_monotone(self, graph):
        prog = BFSProgram(graph, source=0)
        senders = prog.initial_senders()
        for s in range(prog.max_supersteps):
            received = prog._messages_from(senders)
            senders, done = prog.superstep(s, received, senders)
            if done:
                break
        assert prog.dist[0] == 0
        reached = prog.dist[prog.dist >= 0]
        assert len(reached) > 1

    def test_sssp_relaxation_bounds_bfs(self, graph):
        bfs = BFSProgram(graph, source=0)
        sssp = SSSPProgram(graph, source=0)
        for prog in (bfs, sssp):
            senders = prog.initial_senders()
            for s in range(prog.max_supersteps):
                received = prog._messages_from(senders)
                senders, done = prog.superstep(s, received, senders)
                if done:
                    break
        # Weighted distance >= hop count wherever both reached.
        mask = bfs.dist >= 0
        finite = np.isfinite(sssp.dist)
        both = mask & finite
        assert (sssp.dist[both] >= bfs.dist[both]).all()

    def test_cdlp_fixed_rounds(self, graph):
        prog = CDLPProgram(graph, iterations=3)
        senders = prog.initial_senders()
        steps = 0
        for s in range(prog.max_supersteps):
            received = prog._messages_from(senders)
            senders, done = prog.superstep(s, received, senders)
            steps += 1
            if done:
                break
        assert steps == 3

    def test_frontier_smaller_than_all_active(self, graph):
        bfs = BFSProgram(graph, source=0)
        assert bfs.initial_senders().sum() == 1
        pr = PageRankProgram(graph)
        assert pr.initial_senders().all()


class TestGiraphJob:
    def test_load_graph_builds_partition_store(self, graph):
        vm = make_vm()
        conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
        job = GiraphJob(vm, conf, graph)
        job.load_graph()
        assert len(job.partition_roots) == NUM_PARTITIONS
        assert all(v is not None for v in job.vertex_objs)

    def test_run_executes_supersteps(self, graph):
        vm = make_vm()
        conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
        job = GiraphJob(vm, conf, graph)
        job.load_graph()
        steps = job.run(PageRankProgram(graph, iterations=3))
        assert steps == 3
        assert job.messages_sent > 0

    def test_teraheap_mode_moves_edges(self, graph):
        vm = make_vm(th=True)
        conf = GiraphConf(mode=GiraphMode.TERAHEAP)
        job = GiraphJob(vm, conf, graph)
        job.load_graph()
        vm.major_gc()
        edges = [e for e in job.edge_roots if e is not None]
        h2_edges = [e for e in edges if e.space is SpaceId.H2]
        assert h2_edges, "edge arrays should migrate to H2"
        assert h2_edges[0].label == EDGES_LABEL

    def test_message_stores_die_and_regions_reclaim(self, graph):
        vm = make_vm(heap_gb=3, th=True)  # tight heap: majors happen
        conf = GiraphConf(mode=GiraphMode.TERAHEAP)
        job = GiraphJob(vm, conf, graph)
        # Heavier messages so stores dominate the heap and must migrate.
        job.bytes_per_message = 2 * KiB
        job.load_graph()
        job.run(PageRankProgram(graph, iterations=6))
        vm.major_gc()  # final collection observes the retired stores
        assert vm.h2.regions_reclaimed > 0

    def test_ooc_offloads_under_pressure(self):
        big = make_graph(gb(6), num_vertices=400, avg_degree=4, seed=2)
        vm = make_vm(heap_gb=6)
        conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
        job = GiraphJob(vm, conf, big)
        job.load_graph()
        assert job.ooc.bytes_offloaded > 0

    def test_ooc_reloads_on_access(self):
        big = make_graph(gb(6), num_vertices=400, avg_degree=4, seed=2)
        vm = make_vm(heap_gb=7)
        conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
        job = GiraphJob(vm, conf, big)
        job.load_graph()
        job.run(PageRankProgram(big, iterations=2))
        assert job.ooc.bytes_reloaded > 0

    def test_vertices_never_tagged(self, graph):
        vm = make_vm(th=True)
        conf = GiraphConf(mode=GiraphMode.TERAHEAP)
        job = GiraphJob(vm, conf, graph)
        job.load_graph()
        job.run(PageRankProgram(graph, iterations=2))
        assert all(
            v.label is None
            for v in job.vertex_objs
            if v is not None and v.space is not SpaceId.FREED
        )


class TestWorkloadRegistry:
    def test_all_five_programs_present(self):
        assert set(GIRAPH_PROGRAMS) == {"PR", "CDLP", "WCC", "BFS", "SSSP"}

    @pytest.mark.parametrize("name", ["PR", "BFS"])
    def test_run_giraph_end_to_end(self, name):
        vm = make_vm(th=True)
        conf = GiraphConf(mode=GiraphMode.TERAHEAP)
        g = make_giraph_graph(gb(3), seed=3)
        job = run_giraph(vm, conf, g, name)
        assert job.supersteps_run > 0
