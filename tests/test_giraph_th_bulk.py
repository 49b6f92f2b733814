"""Giraph-TeraHeap compute phases as one bulk pass.

Nothing in a TeraHeap compute phase allocates or collects, so the phase
reads every active vertex's value, edge array and messages and runs its
value-update barrier in one pass: the ``OTHER`` charges are collected in
order and flushed before each H2 object is loaded through the mapping.
The tests hold the pass to the per-vertex path (``GiraphJob._bulk_applies``
patched to False) on random small jobs, then check the phases and the
configurations that keep the per-vertex path.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import log_charges, vm_state
from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import PantheraConfig
from repro.devices.mmap import BASE_PAGE
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.errors import OutOfMemoryError, SegmentationFault
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.frameworks.giraph import GiraphConf, GiraphJob, GiraphMode
from repro.frameworks.giraph.workloads import GIRAPH_PROGRAMS
from repro.heap.object_model import SpaceId
from repro.teraheap.h2_heap import H2Heap
from repro.units import KiB
from repro.workloads.generators import make_graph


def th_vm(heap_mb=1.0, cache_pages=64, h2=True, **config):
    """A small PS VM, with an H2 heap unless ``h2`` is False."""
    return JavaVM(
        VMConfig(
            heap_size=gb(heap_mb),
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=h2, h2_size=gb(64), region_size=16 * KiB
            ),
            page_cache_size=cache_pages * BASE_PAGE,
            **config,
        ),
        h2_device=NVMeSSD(Clock()) if h2 else None,
    )


def build_job(
    vm=None,
    graph_mb=1.0,
    vertices=300,
    use_move_hint=True,
    seed=3,
    **vm_args,
):
    graph = make_graph(
        gb(graph_mb), num_vertices=vertices, avg_degree=8, seed=seed
    )
    vm = vm or th_vm(**vm_args)
    conf = GiraphConf(mode=GiraphMode.TERAHEAP, use_move_hint=use_move_hint)
    return vm, GiraphJob(vm, conf, graph)


def job_state(vm, job, error) -> dict:
    """Everything a compute phase can touch, floats as exact hex."""
    state = vm_state(vm)
    barrier = vm.barrier
    state.update(
        error=error,
        barrier=(barrier.barrier_count, getattr(barrier, "h2_marks", 0)),
        cards=list(vm.heap.card_table.dirty_cards()),
        supersteps=job.supersteps_run,
        messages=(job.messages_sent, job.message_store_bytes),
        current_partition=job.current_partition,
    )
    h2 = vm.h2
    if h2 is not None:
        cache, traffic = h2.page_cache, h2.device.traffic
        state.update(
            h2_cards=list(h2.card_table.iter_states()),
            mutator_marks=h2.card_table.mutator_marks,
            cache=(
                cache.hits, cache.misses, cache.evictions, cache.writebacks
            ),
            lru=cache.lru(),
            traffic=(
                traffic.bytes_read,
                traffic.bytes_written,
                traffic.read_ops,
                traffic.write_ops,
            ),
            page_faults=h2.mapping.page_faults,
        )
    return state


def spy_bulk():
    """Record what every ``_compute_bulk`` call returned."""
    results = []
    bulk = GiraphJob._compute_bulk

    def spied(self, active):
        results.append(bulk(self, active))
        return results[-1]

    return results, mock.patch.object(GiraphJob, "_compute_bulk", spied)


def run_job(program, bulk=True, before_phase=None, **kwargs):
    """Run a job to the end (or to an error); return its state, what each
    ``_compute_bulk`` call returned, and the vertices computed one by one.

    ``before_phase(job, step, active)`` runs before each compute phase.
    """
    vm, job = build_job(**kwargs)
    charges = log_charges(vm.clock)
    results, spy = spy_bulk()
    per_vertex = mock.patch.object(
        GiraphJob, "_compute_vertex", autospec=True,
        side_effect=GiraphJob._compute_vertex,
    )
    patches = [spy]
    if not bulk:
        patches.append(
            mock.patch.object(GiraphJob, "_bulk_applies", lambda self: False)
        )
    if before_phase is not None:
        phase = GiraphJob._compute_phase

        def hooked(self, step, senders):
            before_phase(self, step, senders)
            phase(self, step, senders)

        patches.append(
            mock.patch.object(GiraphJob, "_compute_phase", hooked)
        )
    error = None
    with per_vertex as vertex:
        for patch in patches:
            patch.start()
        try:
            job.load_graph()
            job.run(GIRAPH_PROGRAMS[program](job.graph))
        except (OutOfMemoryError, SegmentationFault) as exc:
            error = type(exc).__name__, str(exc)
        finally:
            for patch in reversed(patches):
                patch.stop()
        computed = vertex.call_count
    state = job_state(vm, job, error)
    state["charges"] = charges
    return state, results, computed


# ---------------------------------------------------------------------
# Equivalence: one bulk pass == the per-vertex path
# ---------------------------------------------------------------------
JOB_ARGS = dict(
    program=st.sampled_from(["CDLP", "PR", "BFS"]),
    use_move_hint=st.booleans(),
    cache_pages=st.sampled_from([1, 4, 8, 64, 1024]),
    heap_mb=st.sampled_from([0.5, 1.0, 2.0]),
    vertices=st.integers(150, 300),
    graph_mb=st.sampled_from([0.6, 1.0, 1.5]),
    seed=st.integers(0, 50),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**JOB_ARGS)
@example(
    program="CDLP", use_move_hint=True,
    cache_pages=64, heap_mb=0.5, vertices=300, graph_mb=1.0, seed=3,
)
@example(  # some vertex values are still in from-space: no card
    program="CDLP", use_move_hint=True,
    cache_pages=4, heap_mb=2.0, vertices=300, graph_mb=1.0, seed=3,
)
def test_bulk_pass_matches_the_per_vertex_path(program, **kwargs):
    reference, ref_results, ref_computed = run_job(
        program, bulk=False, **kwargs
    )
    state, results, computed = run_job(program, **kwargs)
    assert ref_results == []
    assert state == reference
    if reference["error"] is None:
        # Every phase ran in bulk.
        assert results and all(results)
        assert computed == 0


def test_pinned_job_evicts_dirty_pages_inside_a_bulk_pass():
    """The first hypothesis example above: messages sit in the old
    generation and in H2, and loads inside the pass evict dirty pages,
    whose writebacks must reach the clock between the right reads."""
    kwargs = dict(heap_mb=0.5)
    spaces = set()
    writebacks = []
    bulk = GiraphJob._compute_bulk

    def spied(self, active):
        cache = self.vm.h2.page_cache
        before = cache.writebacks
        spaces.update(
            self.incoming_msgs[v].space
            for v in active
            if v in self.incoming_msgs
        )
        result = bulk(self, active)
        writebacks.append(cache.writebacks - before)
        return result

    with mock.patch.object(GiraphJob, "_compute_bulk", spied):
        state, _, _ = run_job("CDLP", **kwargs)
    reference, _, _ = run_job("CDLP", bulk=False, **kwargs)
    assert sum(writebacks) > 0
    assert {SpaceId.OLD, SpaceId.H2} <= spaces
    assert state == reference


def test_messages_kept_in_h1_without_the_move_hint():
    state, results, _ = run_job("CDLP", use_move_hint=False, heap_mb=2.0)
    reference, _, _ = run_job(
        "CDLP", bulk=False, use_move_hint=False, heap_mb=2.0
    )
    assert results and all(results)
    assert state == reference


# ---------------------------------------------------------------------
# Phases that keep the per-vertex path
# ---------------------------------------------------------------------
def move_vertex_to_h2(v):
    """A ``before_phase`` hook moving vertex ``v``'s value into H2."""

    def move(job, step, senders):
        vm, vertex = job.vm, job.vertex_objs[v]
        if step == 0:
            vm.h2_tag_root(vertex, "hot-vertex")
            vm.h2_move("hot-vertex")
            vm.major_gc()
            assert vertex.space is SpaceId.H2

    return move


def test_a_vertex_value_in_h2_keeps_the_per_vertex_path():
    hook = move_vertex_to_h2(5)
    reference, _, ref_computed = run_job("CDLP", False, hook)
    with mock.patch.object(
        H2Heap, "mutator_store", autospec=True,
        side_effect=H2Heap.mutator_store,
    ) as store:
        state, results, computed = run_job("CDLP", True, hook)
    assert state == reference
    # Vertex 5 is active in every phase, so every phase fell back, and
    # its value update stored through the mapping and dirtied its H2
    # card.
    assert results and not any(results)
    assert computed == ref_computed > 0
    assert store.call_count >= len(results)
    assert state["mutator_marks"] >= len(results)
    assert state["barrier"][1] >= len(results)


def free_read_object(kind, v):
    """A ``before_phase`` hook reclaiming vertex ``v``'s edge array or
    message batch (from H1) before the second phase."""

    def free(job, step, senders):
        if step != 1:
            return
        vm = job.vm
        if kind == "edges":
            obj, holder = job.edge_roots[v], job.vertex_objs[v]
        else:
            obj, holder = job.incoming_msgs[v], job.incoming_root
        assert obj.in_h1 and senders[v]
        vm.write_ref(holder, None, remove=obj)
        vm.major_gc()
        assert obj.space is SpaceId.FREED

    return free


@pytest.mark.parametrize("kind", ["edges", "msgs"])
def test_a_freed_read_object_faults_like_the_per_vertex_path(kind):
    kwargs = dict(use_move_hint=False, heap_mb=2.0)
    hook = free_read_object(kind, 7)
    reference, _, ref_computed = run_job("CDLP", False, hook, **kwargs)
    state, results, computed = run_job("CDLP", True, hook, **kwargs)
    assert reference["error"][0] == "SegmentationFault"
    assert "read of reclaimed object" in reference["error"][1]
    # The clock totals and every charge match at the raise.
    assert state == reference
    # The first phase ran in bulk; the second fell back and faulted
    # part-way through.
    assert results == [True, False]
    assert 0 < computed < ref_computed


def test_an_empty_phase_changes_nothing():
    vm, job = build_job()
    job.load_graph()
    before = job_state(vm, job, None)
    assert job._compute_bulk([])
    assert job_state(vm, job, None) == before


# ---------------------------------------------------------------------
# Configurations that keep the per-vertex path
# ---------------------------------------------------------------------
def make_panthera():
    vm = JavaVM(
        VMConfig(
            heap_size=gb(4),
            collector="panthera",
            panthera=PantheraConfig(dram_old_size=gb(0.2)),
        )
    )
    vm.heap.pretenure_threshold = 32 * KiB
    nvm = NVM(vm.clock)
    vm.old_gen_device = nvm
    vm.collector.nvm = nvm
    return vm


def fallback_vm(kind):
    if kind == "panthera":
        return make_panthera()
    if kind in ("memmode", "g1"):
        return JavaVM(VMConfig(heap_size=gb(2), collector=kind))
    if kind == "resilience":
        return th_vm(faults=FaultConfig())
    vm = th_vm()
    h2, plan = vm.h2, FaultPlan(FaultConfig())
    if kind == "fault-plan":
        h2.mapping.fault_plan = plan
    if kind == "injector":
        injector = FaultInjector(h2.device, plan)
        h2.device = h2.page_cache.device = h2.mapping.device = injector
    return vm


FALLBACKS = [
    "memmode", "panthera", "g1", "resilience", "fault-plan", "injector",
    "context",
]


@pytest.mark.parametrize("kind", FALLBACKS)
def test_fallback_configurations_compute_vertex_by_vertex(kind):
    vm, job = build_job(fallback_vm(kind))
    assert not job._bulk_applies() or kind == "context"
    results, spy = spy_bulk()
    with spy, mock.patch.object(
        GiraphJob, "_compute_vertex", autospec=True,
        side_effect=GiraphJob._compute_vertex,
    ) as vertex:
        job.load_graph()
        program = GIRAPH_PROGRAMS["CDLP"](job.graph)
        if kind == "context":
            with vm.clock.context(Bucket.SD_IO):
                assert not job._bulk_applies()
                job.run(program)
        else:
            job.run(program)
    assert results == []
    assert vertex.call_count > 0


@pytest.mark.parametrize("collector", ["ps", "g1"])
def test_ooc_jobs_take_no_bulk_pass(collector):
    """An OOC job keeps its reload stretches, or on G1 the per-vertex
    path."""
    graph = make_graph(gb(1), num_vertices=300, avg_degree=8, seed=5)
    vm = JavaVM(
        VMConfig(
            heap_size=gb(2.5), collector=collector, page_cache_size=gb(0.3)
        )
    )
    conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
    job = GiraphJob(vm, conf, graph)
    job.ooc.threshold = 0.5
    assert not job._bulk_applies()
    results, spy = spy_bulk()
    with spy, mock.patch.object(
        GiraphJob, "_compute_stretch", autospec=True,
        side_effect=GiraphJob._compute_stretch,
    ) as stretch:
        job.load_graph()
        job.run(GIRAPH_PROGRAMS["CDLP"](graph))
    assert results == []
    assert (stretch.call_count > 0) is (collector == "ps")


def test_teraheap_mode_without_h2_runs_in_bulk():
    kwargs = dict(h2=False, heap_mb=2.0)
    reference, _, ref_computed = run_job("CDLP", bulk=False, **kwargs)
    state, results, computed = run_job("CDLP", **kwargs)
    assert reference["error"] is None
    assert results and all(results)
    assert computed == 0 < ref_computed
    assert state == reference
