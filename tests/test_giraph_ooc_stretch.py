"""Giraph-OOC compute phases in reload stretches.

An out-of-core compute phase runs stretches of active vertices in bulk:
between two :meth:`OOCScheduler.maybe_offload` checks that would act,
and between two collections, every vertex value, edge array and message
batch that must come back from the out-of-core store is re-allocated,
linked and charged in one pass.  The tests hold the stretches to the
per-vertex path (``GiraphJob._stretches_apply`` patched to False) on
random small jobs, then check the scheduler's room query at its
boundaries and the configurations that keep the per-vertex path.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from helpers import log_charges, vm_state
from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import PantheraConfig
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.errors import OutOfMemoryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.frameworks.giraph import GiraphConf, GiraphJob, GiraphMode
from repro.frameworks.giraph.job import MAX_ARRAY_OBJECT, NUM_PARTITIONS
from repro.frameworks.giraph.ooc import OOC_THRESHOLD, OOCScheduler
from repro.frameworks.giraph.workloads import GIRAPH_PROGRAMS
from repro.units import KiB
from repro.workloads.generators import make_graph


def build_job(
    heap_mb=0.7,
    cache_mb=0.3,
    graph_mb=1.0,
    vertices=400,
    threshold=OOC_THRESHOLD,
    seed=3,
    collector="ps",
    pretenure=None,
):
    graph = make_graph(
        gb(graph_mb), num_vertices=vertices, avg_degree=8, seed=seed
    )
    vm = JavaVM(
        VMConfig(
            heap_size=gb(heap_mb),
            collector=collector,
            page_cache_size=gb(cache_mb),
        )
    )
    conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
    #: objects this large go straight to the old generation
    vm.heap.pretenure_threshold = pretenure
    job = GiraphJob(vm, conf, graph)
    job.ooc.threshold = threshold
    return vm, job


def count_tiers(job) -> dict:
    """Count the offloads of the message and vertex tiers that freed data."""
    fired = {"msgs": 0, "vparts": 0}

    def counting(name, method):
        def wrapper(*args):
            result = method(*args)
            freed = result[0] if isinstance(result, tuple) else result
            if freed:
                fired[name] += 1
            return result

        return wrapper

    job.offload_incoming_messages = counting(
        "msgs", job.offload_incoming_messages
    )
    job.offload_vertices = counting("vparts", job.offload_vertices)
    return fired


def run_job(program, stretches=True, room_zero=False, **kwargs):
    """Run a job to the end (or to OOM); return its state and counters."""
    vm, job = build_job(**kwargs)
    charges = log_charges(vm.clock)
    fired = count_tiers(job)
    patches = []
    if not stretches:
        patches.append(
            mock.patch.object(
                GiraphJob, "_stretches_apply", lambda self: False
            )
        )
    if room_zero:
        patches.append(
            mock.patch.object(OOCScheduler, "room", lambda self, g, s: 0)
        )
    spy = mock.patch.object(
        GiraphJob, "_run_stretch", autospec=True,
        side_effect=GiraphJob._run_stretch,
    )
    error = None
    with spy as run_stretch:
        for patch in patches:
            patch.start()
        try:
            job.load_graph()
            job.run(GIRAPH_PROGRAMS[program](job.graph))
        except OutOfMemoryError as exc:
            error = str(exc)
        finally:
            for patch in patches:
                patch.stop()
        stretched = run_stretch.call_count
    state = job_state(vm, job, error)
    state["charges"] = charges
    return state, fired, stretched


def job_state(vm, job, error) -> dict:
    """Everything a compute phase can touch, floats as exact hex."""
    state = vm_state(vm)
    ooc, cache = job.ooc, job.ooc.cache
    traffic = job.conf.device.traffic
    state.update(
        error=error,
        barrier=vm.barrier.barrier_count,
        cards=list(vm.heap.card_table.dirty_cards()),
        ooc=(
            ooc.offload_events,
            ooc.bytes_offloaded,
            ooc.bytes_reloaded,
            ooc.dropped_estimate,
            ooc._seen_cycles,
            ooc._victim_cursor,
            ooc._next_offset,
        ),
        offsets=list(ooc._offsets.items()),
        cache=(cache.hits, cache.misses, cache.evictions, cache.writebacks),
        lru=cache.lru(),
        traffic=(
            traffic.bytes_read,
            traffic.bytes_written,
            traffic.read_ops,
            traffic.write_ops,
        ),
        resident_edges=[sorted(s) for s in job.resident_edges],
        resident_vertices=[sorted(s) for s in job.resident_vertices],
        vertex_objs=[o and o.oid for o in job.vertex_objs],
        edge_roots=[o and o.oid for o in job.edge_roots],
        offloaded_msgs=sorted(job.offloaded_msgs.items()),
        current_partition=job.current_partition,
        supersteps=job.supersteps_run,
        frames=len(vm.roots._frames),
    )
    return state


def has_split_edges(job) -> bool:
    return max(job._edge_sizes) > MAX_ARRAY_OBJECT


# ---------------------------------------------------------------------
# Equivalence: stretches == the per-vertex path
# ---------------------------------------------------------------------
JOB_ARGS = dict(
    program=st.sampled_from(["CDLP", "PR", "BFS"]),
    threshold=st.sampled_from([0.4, 0.55, 0.65, 0.72, 0.8, 0.9]),
    vertices=st.integers(150, 300),
    graph_mb=st.sampled_from([0.6, 1.0, 1.5]),
    heap_mb=st.sampled_from([0.5, 0.7, 1.0]),
    cache_mb=st.sampled_from([0.05, 0.3]),
    seed=st.integers(0, 50),
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**JOB_ARGS)
@example(
    program="CDLP", threshold=0.72,
    vertices=400, graph_mb=1.0, heap_mb=0.7, cache_mb=0.3, seed=3,
)
def test_stretches_match_the_per_vertex_path(program, **kwargs):
    reference, ref_fired, ref_stretched = run_job(
        program, stretches=False, **kwargs
    )
    state, fired, stretched = run_job(program, **kwargs)
    assert ref_stretched == 0
    assert fired == ref_fired
    assert state == reference
    # A room query that finds no room leaves only check-free stretches.
    state, fired, _ = run_job(program, room_zero=True, **kwargs)
    assert state == reference


def test_pinned_job_reaches_every_tier_and_split_arrays():
    """The hypothesis example above: all three offload tiers fire, edge
    arrays over MAX_ARRAY_OBJECT are reloaded, and stretches run."""
    vm, job = build_job()
    assert has_split_edges(job)
    reference, ref_fired, _ = run_job("CDLP", stretches=False)
    state, fired, stretched = run_job("CDLP")
    assert fired["msgs"] > 0 and fired["vparts"] > 0
    assert state["ooc"][1] > 0 and state["ooc"][2] > 0
    assert stretched > 0
    assert state == reference


# ---------------------------------------------------------------------
# The room query at its boundaries
# ---------------------------------------------------------------------
@pytest.fixture
def loaded():
    vm, job = build_job()
    job.load_graph()
    return vm, job


def at_occupancy(vm, ooc, extra_bytes=0):
    """Set the threshold to the occupancy after ``extra_bytes`` more."""
    used = max(vm.heap.used() + extra_bytes - ooc.dropped_estimate, 0)
    ooc.threshold = used / vm.heap.capacity


def test_occupancy_at_the_threshold_is_room(loaded):
    vm, job = loaded
    ooc = job.ooc
    ooc.effective_occupancy()
    at_occupancy(vm, ooc, 4096)
    assert ooc.room([0, 4096, 4097], [0, 0, 0]) == 2
    at_occupancy(vm, ooc)
    assert ooc.room([], []) == 0
    assert ooc.room([0], [0]) == 1
    # maybe_offload agrees: exactly at the threshold it does nothing.
    events = ooc.offload_events
    ooc.maybe_offload()
    assert ooc.offload_events == events
    assert ooc.room([1], [0]) == 0


def test_estimate_clamps_at_zero_inside_a_stretch(loaded):
    vm, job = loaded
    ooc = job.ooc
    ooc.effective_occupancy()
    ooc.dropped_estimate = 5000
    # At the second check the reloads took 12000 B off a 5000 B estimate:
    # it stands at 0, not -7000, so occupancy is used + 8000 exactly.
    ooc.threshold = (vm.heap.used() + 8000) / vm.heap.capacity
    assert ooc.room([0, 8000], [0, 12000]) == 2
    assert ooc.room([0, 8001], [0, 12000]) == 1
    ooc.pass_checks(12000)
    assert ooc.dropped_estimate == 0


def test_a_collection_since_the_last_check_resets_the_estimate(loaded):
    vm, job = loaded
    ooc = job.ooc
    ooc.effective_occupancy()
    ooc.dropped_estimate = vm.heap.used()
    ooc.threshold = 0.0
    assert ooc.room([0], [0]) == 1
    vm.minor_gc()
    ooc.dropped_estimate = vm.heap.used()
    assert ooc.room([0], [0]) == 0
    # The first check after the collection resets the estimate.
    ooc.pass_checks(0)
    assert ooc.dropped_estimate == 0


def resident_active(job):
    """Every vertex, all resident and without messages: no reloads."""
    parts = NUM_PARTITIONS
    for v in range(job.graph.num_vertices):
        assert job.vertex_objs[v] is not None
    job.incoming_msgs = {}
    job.offloaded_msgs = {}
    return sorted(range(job.graph.num_vertices), key=lambda v: v % parts)


def test_the_128th_vertex_check_ends_a_stretch():
    vm, job = build_job(heap_mb=4.0, threshold=0.9)
    job.load_graph()
    active = resident_active(job)
    ooc = job.ooc
    at_occupancy(vm, ooc)
    ooc.threshold -= 1e-9
    # No vertex reloads, so the only check is the one after the 128th.
    assert job._compute_stretch(0, active, 0, 400) == 127
    assert job._compute_stretch(0, active, 127, 400) == 0
    assert job._compute_stretch(0, active, 128, 400) == 255 - 128


def offload_everything(job):
    for pid in range(NUM_PARTITIONS):
        job.offload_vertices(pid)


def test_an_allocation_eden_cannot_take_ends_the_stretch():
    vm, job = build_job(heap_mb=4.0, threshold=1.0)
    job.load_graph()
    offload_everything(job)
    parts = NUM_PARTITIONS
    active = sorted(range(job.graph.num_vertices), key=lambda v: v % parts)
    # Fill eden up to room for the first vertex's reloads only.
    first = active[0]
    need = job.graph.vertex_value_size + max(job._edge_sizes[first], 64)
    assert job._edge_sizes[first] <= MAX_ARRAY_OBJECT
    filler = vm.heap.eden.free - need - 8
    vm.roots.add(vm.allocate(filler, name="filler"))
    assert job._compute_stretch(0, active, 0, 16) == 1
    assert job.vertex_objs[first] is not None
    assert job._compute_stretch(0, active, 1, 16) == 0


def test_an_old_generation_allocation_ends_the_stretch():
    vm, job = build_job(heap_mb=4.0, threshold=1.0)
    job.load_graph()
    offload_everything(job)
    parts = NUM_PARTITIONS
    active = sorted(range(job.graph.num_vertices), key=lambda v: v % parts)
    sizes = [max(job._edge_sizes[v], 64) for v in active]
    # Pretenure the first edge array over 1 KiB: its reload ends the
    # stretch, and every reload before it is smaller.
    cut = next(k for k, size in enumerate(sizes) if size > 1024)
    assert cut > 0
    vm.heap.pretenure_threshold = sizes[cut]
    assert job._compute_stretch(0, active, 0, len(active)) == cut


def test_pretenured_reloads_match_the_per_vertex_path():
    """Edge arrays of 4 KiB and more go to the old generation, so every
    such reload ends a stretch and takes the per-vertex path."""
    kwargs = dict(heap_mb=2.0, pretenure=4 * KiB)
    reference, _, _ = run_job("CDLP", stretches=False, **kwargs)
    state, _, stretched = run_job("CDLP", **kwargs)
    assert reference["error"] is None
    assert stretched > 0
    assert state == reference


# ---------------------------------------------------------------------
# Configurations that keep the per-vertex path
# ---------------------------------------------------------------------
def make_panthera():
    config = VMConfig(
        heap_size=gb(1.5),
        collector="panthera",
        panthera=PantheraConfig(dram_old_size=gb(0.2)),
        page_cache_size=gb(0.3),
    )
    vm = JavaVM(config)
    vm.heap.pretenure_threshold = 32 * KiB
    nvm = NVM(vm.clock)
    vm.old_gen_device = nvm
    vm.collector.nvm = nvm
    return vm


def fallback_vm(kind):
    if kind == "panthera":
        return make_panthera()
    if kind == "teraheap":
        return JavaVM(
            VMConfig(
                heap_size=gb(1.5),
                collector="ps",
                teraheap=TeraHeapConfig(enabled=True, h2_size=gb(64)),
                page_cache_size=gb(0.3),
            )
        )
    return JavaVM(
        VMConfig(heap_size=gb(2.5), collector=kind, page_cache_size=gb(0.3))
    )


FALLBACKS = ["memmode", "panthera", "g1", "teraheap", "fault-plan", "injector"]


@pytest.mark.parametrize("kind", FALLBACKS)
def test_fallback_configurations_compute_vertex_by_vertex(kind):
    graph = make_graph(gb(1), num_vertices=300, avg_degree=8, seed=5)
    vm = fallback_vm(kind if kind in FALLBACKS[:4] else "ps")
    device = NVMeSSD(vm.clock)
    plan = FaultPlan(FaultConfig())
    if kind == "injector":
        device = FaultInjector(device, plan)
    conf = GiraphConf(mode=GiraphMode.OOC, device=device)
    job = GiraphJob(vm, conf, graph)
    job.ooc.threshold = 0.5
    if kind == "fault-plan":
        job.ooc.cache.fault_plan = plan
    assert not job._stretches_apply()
    with mock.patch.object(GiraphJob, "_compute_stretch") as stretch:
        job.load_graph()
        job.run(GIRAPH_PROGRAMS["CDLP"](graph))
    stretch.assert_not_called()
    assert job.ooc.bytes_reloaded > 0


def test_teraheap_mode_takes_no_stretch():
    graph = make_graph(gb(1), num_vertices=300, avg_degree=8, seed=5)
    vm = fallback_vm("teraheap")
    job = GiraphJob(vm, GiraphConf(mode=GiraphMode.TERAHEAP), graph)
    with mock.patch.object(GiraphJob, "_compute_stretch") as stretch:
        job.load_graph()
        job.run(GIRAPH_PROGRAMS["CDLP"](graph))
    stretch.assert_not_called()


def test_a_clock_context_other_than_other_takes_no_stretch(loaded):
    vm, job = loaded
    active = [0, 8, 16]
    with vm.clock.context(Bucket.SD_IO):
        assert job._compute_stretch(0, active, 0, 3) == 0
    assert job._compute_stretch(0, active, 0, 3) > 0
