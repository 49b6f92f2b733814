"""Giraph out-of-core mode: a pinned OOC job digest and residency sets.

The job is Giraph CDLP at the Table 4 OOC heap:page-cache split (70:15),
small enough that the heap overflows and the scheduler has to reach all
three of its tiers: edge arrays, the incoming message store and whole
vertex partitions.  The digest covers every simulated quantity the
scheduler influences, so any change to victim order, device traffic or
clock charging shows up as a mismatch.  A second digest of the same job
covers the heap and the out-of-core store row by row: every store row
that is not FREED (name, size, space, address, references as ranks
among those rows), the out-of-core file's
offset map, the page cache's LRU order and the root-set depth, so a
change to how reloaded data is re-allocated or linked shows up too.
"""

import hashlib

import pytest

from helpers import live_rows, ranked_refs
from repro import JavaVM, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.giraph import (
    CDLPProgram,
    GiraphConf,
    GiraphJob,
    GiraphMode,
)
from repro.frameworks.giraph.job import NUM_PARTITIONS
from repro.frameworks.giraph.workloads import (
    GIRAPH_PROGRAMS,
    make_giraph_graph,
)
from repro.workloads.generators import make_graph

#: digest of :func:`ooc_summary` for the pinned CDLP job below
GOLDEN_OOC_CDLP_DIGEST = "596787902de57683"
#: digest of :func:`ooc_store_summary` for the same job
GOLDEN_OOC_CDLP_STORE_DIGEST = "7c996f0604c489c5"


def run_ooc_cdlp():
    """Run the pinned OOC CDLP job; return it with per-tier offload counts."""
    dram = gb(2)
    heap = int(dram * 70 / 85)
    vm = JavaVM(
        VMConfig(
            heap_size=heap,
            collector="ps",
            mutator_threads=8,
            page_cache_size=dram - heap,
        ),
    )
    conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
    graph = make_giraph_graph(gb(2), seed=42)
    job = GiraphJob(vm, conf, graph)
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
    job.load_graph()
    job.run(CDLPProgram(graph))
    return vm, job, fired


def ooc_summary(vm, job) -> str:
    ooc = job.ooc
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(vm.breakdown().items())]
    lines += [
        f"offload_events={ooc.offload_events!r}",
        f"bytes_offloaded={ooc.bytes_offloaded!r}",
        f"bytes_reloaded={ooc.bytes_reloaded!r}",
        f"pc_hits={ooc.cache.hits!r}",
        f"pc_misses={ooc.cache.misses!r}",
        f"device_read={job.conf.device.traffic.bytes_read!r}",
        f"device_written={job.conf.device.traffic.bytes_written!r}",
        f"objects={vm.store.object_count!r}",
    ]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def ooc_cdlp():
    return run_ooc_cdlp()


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def ooc_store_summary(vm, job) -> str:
    """Store rows, out-of-core offsets, page-cache LRU and heap bookkeeping."""
    store = vm.store
    ooc = job.ooc
    rows = [
        (
            store.name[oid],
            store.size[oid],
            store.space[oid],
            store.address[oid],
            refs,
        )
        for oid, refs in zip(live_rows(store).tolist(), ranked_refs(store))
    ]
    heap = vm.heap
    lines = [
        f"rows={_sha(rows)}",
        f"offsets={_sha(list(ooc._offsets.items()))}",
        f"next_offset={ooc._next_offset!r}",
        f"lru={_sha(ooc.cache.lru())}",
        f"roots={len(vm.roots)!r}",
        f"frames={len(vm.roots._frames)!r}",
        f"edge_version={store.edge_version!r}",
        f"barrier_count={vm.barrier.barrier_count!r}",
        f"dirty_cards={_sha(sorted(heap.card_table.dirty_cards()))}",
        f"allocated={(heap.allocated_objects, heap.allocated_bytes)!r}",
        f"tops={[s.top for s in heap.spaces()]!r}",
        f"resident_edges={_sha([sorted(s) for s in job.resident_edges])}",
        f"resident_vertices={_sha([sorted(s) for s in job.resident_vertices])}",
        f"dropped_estimate={ooc.dropped_estimate!r}",
        f"victim_cursor={ooc._victim_cursor!r}",
    ]
    return "\n".join(lines)


def test_ooc_cdlp_golden_digest(ooc_cdlp):
    vm, job, fired = ooc_cdlp
    assert job.graph.num_vertices == 2000
    # Every offload tier fires: edges (always first), then the message
    # store, then whole vertex partitions.
    assert job.ooc.bytes_offloaded > 0
    assert fired["msgs"] > 0
    assert fired["vparts"] > 0
    summary = ooc_summary(vm, job)
    digest = hashlib.sha256(summary.encode()).hexdigest()[:16]
    assert digest == GOLDEN_OOC_CDLP_DIGEST, summary


def test_ooc_cdlp_store_golden_digest(ooc_cdlp):
    vm, job, _ = ooc_cdlp
    summary = ooc_store_summary(vm, job)
    digest = hashlib.sha256(summary.encode()).hexdigest()[:16]
    assert digest == GOLDEN_OOC_CDLP_STORE_DIGEST, summary


def assert_resident_sets_exact(job):
    parts = NUM_PARTITIONS
    for pid in range(parts):
        members = range(pid, job.graph.num_vertices, parts)
        assert job.resident_edges[pid] == {
            v for v in members if job.edge_roots[v] is not None
        }
        assert job.resident_vertices[pid] == {
            v for v in members if job.vertex_objs[v] is not None
        }


@pytest.mark.parametrize("program", ["PR", "CDLP", "BFS"])
def test_resident_sets_track_heap_residency(program):
    """The per-partition resident sets the OOC scheduler offloads from
    always equal the vertices whose edges / vertex object are on-heap."""
    graph = make_graph(gb(1), num_vertices=400, avg_degree=8, seed=3)
    vm = JavaVM(
        VMConfig(heap_size=gb(0.7), collector="ps", page_cache_size=gb(0.3))
    )
    conf = GiraphConf(mode=GiraphMode.OOC, device=NVMeSSD(vm.clock))
    job = GiraphJob(vm, conf, graph)
    scheduler = job.ooc
    maybe_offload = scheduler.maybe_offload
    checks = []

    def checked():
        maybe_offload()
        assert_resident_sets_exact(job)
        checks.append(scheduler.offload_events)

    scheduler.maybe_offload = checked
    job.load_graph()
    assert_resident_sets_exact(job)
    job.run(GIRAPH_PROGRAMS[program](graph))
    # The heap overflowed: data went out-of-core and came back.
    assert checks and checks[-1] > 0
    assert scheduler.bytes_reloaded > 0
