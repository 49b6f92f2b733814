"""Master aggregators."""

from repro import JavaVM, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.giraph import GiraphConf, GiraphMode, GiraphJob
from repro.frameworks.giraph.aggregators import AggregatorRegistry
from repro.frameworks.giraph.programs import PageRankProgram
from repro.workloads.generators import make_graph


def make_vm():
    return JavaVM(VMConfig(heap_size=gb(8), page_cache_size=gb(2)))


class TestAggregators:
    def test_bsp_visibility(self):
        vm = make_vm()
        master = vm.allocate(256, name="master")
        vm.roots.add(master)
        reg = AggregatorRegistry(vm, master)
        reg.aggregate("sum", 2.0)
        reg.aggregate("sum", 3.0)
        assert reg.get("sum") == 0.0  # not visible until the barrier
        reg.barrier()
        assert reg.get("sum") == 5.0
        reg.barrier()
        assert reg.get("sum") == 0.0  # one superstep of lifetime

    def test_value_objects_released_at_barrier(self):
        vm = make_vm()
        master = vm.allocate(256, name="master")
        vm.roots.add(master)
        reg = AggregatorRegistry(vm, master)
        reg.aggregate("x", 1.0)
        assert len(master.refs) == 1
        reg.barrier()
        assert len(master.refs) == 0

    def test_job_tracks_active_vertices(self):
        vm = make_vm()
        conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
        g = make_graph(gb(2), num_vertices=100, avg_degree=4, seed=3)
        job = GiraphJob(vm, conf, g)
        job.load_graph()
        job.run(PageRankProgram(g, iterations=2))
        # All vertices were active in the last completed superstep.
        assert job.aggregators.get("active_vertices") == g.num_vertices
