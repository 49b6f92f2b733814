"""The Giraph mutator path: a pinned Giraph CDLP-on-TeraHeap digest.

Every superstep fills a fresh message store one per-target batch at a
time and then reads each active vertex's value, edges and messages
(Figure 5).  The job is sized so it crosses scavenges, full collections
and H2 moves, and so the hub vertices' message batches outgrow
``MAX_ARRAY_OBJECT`` and are split.  The digest covers
clock buckets and sub-buckets, GC counts, H2 and page-cache counters,
device traffic, the write-barrier counters, and the name, size,
address, space and references of every object not yet freed (oids as
ranks among those rows, so a store compaction moves no digest), and the
count of objects ever allocated.  A second
digest covers what equal counters can hide: the H2 page cache's LRU
order and dirty bits, the dirty H1 cards, the H2 card states and the
store's edge version.

The rest of the file holds the batch operations that path uses to
per-object reference loops: ``JavaVM.allocate_many(..., into=src)``
against one allocation plus ``write_ref(src, obj)`` per element, and
``JavaVM.read_objects`` against one ``read_object`` per object.  After
every step the store columns, clock totals and sub-totals, GC counts,
dirty cards, barrier counters and H2 page-cache state must be
bit-identical.
"""

import hashlib
from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    make_vm,
    ranked_column,
    ranked_list,
    ranked_refs,
    reference_many,
    reference_place,
    vm_state,
)
from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import PantheraConfig
from repro.devices.base import AccessPattern
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.errors import OutOfMemoryError, SegmentationFault
from repro.frameworks.giraph import (
    CDLPProgram,
    GiraphConf,
    GiraphJob,
    GiraphMode,
)
from repro.frameworks.giraph.workloads import make_giraph_graph
from repro.gc.parallel_scavenge import PromotionFailure
from repro.heap.object_model import HeapObject, SpaceId
from repro.units import KiB

#: digest of :func:`cdlp_summary` for the pinned CDLP job
GOLDEN_TH_CDLP_DIGEST = "99457df834d1a45e"

#: digest of :func:`cdlp_state` for the same job
GOLDEN_TH_CDLP_STATE_DIGEST = "d8cae925aa16932a"


def run_th_cdlp():
    """Run the pinned CDLP job on TeraHeap; return the VM and the job."""
    dram = gb(24)
    heap = int(dram * 60 / 85)
    vm = JavaVM(
        VMConfig(
            heap_size=heap,
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(256), region_size=16 * KiB
            ),
            mutator_threads=8,
            page_cache_size=dram - heap,
        ),
        h2_device=NVMeSSD(Clock()),
    )
    conf = GiraphConf(mode=GiraphMode.TERAHEAP, device=NVMeSSD(vm.clock))
    graph = make_giraph_graph(gb(24), seed=42)
    job = GiraphJob(vm, conf, graph)
    job.load_graph()
    job.run(CDLPProgram(graph))
    return vm, job


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def cdlp_summary(vm, job) -> str:
    h2 = vm.h2
    cache = h2.page_cache
    stats = vm.collector.stats
    store = vm.store
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(vm.breakdown().items())]
    subs = vm.clock.sub_breakdown()
    lines += [f"sub.{k}={v!r}" for k, v in sorted(subs.items())]
    for name, device in (("h2", h2.device), ("giraph", job.conf.device)):
        t = device.traffic
        lines += [
            f"{name}.bytes_read={t.bytes_read!r}",
            f"{name}.bytes_written={t.bytes_written!r}",
            f"{name}.read_ops={t.read_ops!r}",
            f"{name}.write_ops={t.write_ops!r}",
        ]
    lines += [
        f"minor_count={stats.minor_count!r}",
        f"major_count={stats.major_count!r}",
        f"pc_hits={cache.hits!r}",
        f"pc_misses={cache.misses!r}",
        f"pc_evictions={cache.evictions!r}",
        f"pc_writebacks={cache.writebacks!r}",
        f"page_faults={h2.mapping.page_faults!r}",
        f"h2_objects_moved={h2.objects_moved!r}",
        f"h2_bytes_moved={h2.bytes_moved!r}",
        f"h2_regions_allocated={h2.regions_allocated_total!r}",
        f"h2_regions_reclaimed={h2.regions_reclaimed!r}",
        f"barrier_count={vm.barrier.barrier_count!r}",
        f"h2_marks={vm.barrier.h2_marks!r}",
        f"h1_dirty_cards={vm.heap.card_table.dirty_count!r}",
        f"messages_sent={job.messages_sent!r}",
        f"message_store_bytes={job.message_store_bytes!r}",
        f"supersteps={job.supersteps_run!r}",
        f"allocated_objects={vm.heap.allocated_objects!r}",
        f"allocated_bytes={vm.heap.allocated_bytes!r}",
        f"objects={store.object_count!r}",
        f"names={_sha(ranked_list(store, 'name'))}",
        f"sizes={_sha(ranked_column(store, 'size'))}",
        f"addresses={_sha(ranked_column(store, 'address'))}",
        f"spaces={_sha(ranked_column(store, 'space'))}",
        f"refs={_sha(ranked_refs(store))}",
    ]
    return "\n".join(lines)


def cdlp_state(vm, job) -> str:
    """The order-sensitive state :func:`cdlp_summary` only counts: the
    H2 page cache's LRU order with each page's dirty bit, the dirty H1
    cards, the H2 card states and mutator marks, page faults, barrier H2
    marks and the store's edge version."""
    h2 = vm.h2
    lines = [
        f"lru={_sha(h2.page_cache.lru())}",
        f"h1_cards={_sha(list(vm.heap.card_table.dirty_cards()))}",
        f"h2_cards={_sha(list(h2.card_table.iter_states()))}",
        f"h2_mutator_marks={h2.card_table.mutator_marks!r}",
        f"page_faults={h2.mapping.page_faults!r}",
        f"h2_marks={vm.barrier.h2_marks!r}",
        f"edge_version={vm.store.edge_version!r}",
        f"supersteps={job.supersteps_run!r}",
    ]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def th_cdlp():
    """One run of the pinned job, shared by both digests."""
    return run_th_cdlp()


def test_th_cdlp_golden_digest(th_cdlp):
    vm, job = th_cdlp
    stats = vm.collector.stats
    # The job crosses both collections and moves objects to H2.
    assert stats.minor_count > 0
    assert stats.major_count > 0
    assert vm.h2.bytes_moved > 0
    # Hub batches outgrow MAX_ARRAY_OBJECT and are split.
    assert any(
        name.startswith("msg-") and name.endswith(".0")
        for name in vm.store.name
    )
    summary = cdlp_summary(vm, job)
    assert _sha(summary) == GOLDEN_TH_CDLP_DIGEST, summary


def test_th_cdlp_state_golden_digest(th_cdlp):
    vm, job = th_cdlp
    # Every kind of state the digest covers is populated.
    h2 = vm.h2
    assert h2.page_cache.lru() and h2.page_cache.writebacks > 0
    assert vm.heap.card_table.dirty_count > 0
    assert list(h2.card_table.iter_states()) and h2.card_table.mutator_marks
    assert h2.mapping.page_faults > 0
    state = cdlp_state(vm, job)
    assert _sha(state) == GOLDEN_TH_CDLP_STATE_DIGEST, state


# ---------------------------------------------------------------------
# allocate_many(into=src) == allocate + write_ref(src, obj) per element
# ---------------------------------------------------------------------
VM_KINDS = ("ps", "pretenure", "g1", "teraheap")


def make_sources(vm):
    """Rooted store targets: ``old`` (promoted), ``h2`` (moved to H2 on
    TeraHeap, else old), ``freed`` (reclaimed; G1 keeps it) and a fresh
    ``young`` one."""
    srcs = {n: vm.allocate(256, name=n) for n in ("old", "h2", "freed")}
    for obj in srcs.values():
        vm.roots.add(obj)
    if vm.h2 is not None:
        vm.h2_tag_root(srcs["h2"], "h2-src")
        vm.h2_tag_root(srcs["freed"], "freed-src")
        vm.h2_move("h2-src")
        vm.h2_move("freed-src")
    vm.major_gc()
    vm.roots.remove(srcs["freed"])
    vm.major_gc()
    srcs["young"] = vm.roots.add(vm.allocate(256, name="young"))
    return srcs


def batch_state(vm) -> dict:
    """:func:`vm_state` plus barrier, card and H2 page-cache state."""
    state = vm_state(vm)
    barrier = vm.barrier
    state["barrier"] = (barrier.barrier_count, getattr(barrier, "h2_marks", 0))
    if vm.config.collector == "g1":
        state["remset"] = sorted(vm.collector.remset_sources)
    else:
        state["cards"] = list(vm.heap.card_table.dirty_cards())
    h2 = vm.h2
    if h2 is not None:
        cache, traffic = h2.page_cache, h2.device.traffic
        state["h2"] = (
            list(h2.card_table.iter_states()),
            (cache.hits, cache.misses, cache.evictions, cache.writebacks),
            cache.lru(),
            (traffic.bytes_read, traffic.bytes_written),
            (traffic.read_ops, traffic.write_ops),
            h2.mapping.page_faults,
        )
    return state


def reference_into(vm, sizes, names, src):
    """``allocate_many(sizes, names, into=src)`` as a per-object loop."""
    objs = []
    for size, name in zip(sizes, names):
        obj = HeapObject(size, name=name, store=vm.store)
        reference_place(vm, obj, f"cannot allocate {size} B after full GC")
        vm.write_ref(src, obj)
        objs.append(obj)
    return objs


def spy_promotion_failures(vm) -> list:
    """Record every PromotionFailure a scavenge raises on ``vm``."""
    failures = []
    minor = vm.collector.minor_gc

    def spied():
        try:
            minor()
        except PromotionFailure:
            failures.append(vm.collector.stats.minor_count)
            raise

    vm.collector.minor_gc = spied
    return failures


def apply(vm, srcs, pool, op, batched: bool):
    """Apply one generated op, batched or by the reference loop.

    Returns the error it raised as ``(type name, message)``, or None."""
    kind, arg, sizes, in_sub = op
    names = [f"{kind}-{len(pool)}-{i}" for i in range(len(sizes))]
    try:
        with vm.clock.sub_context("phase") if in_sub else nullcontext():
            if kind == "into":
                src = srcs[arg]
                if batched:
                    pool += vm.allocate_many(sizes, names, into=src)
                else:
                    pool += reference_into(vm, sizes, names, src)
            elif kind in ("many", "rooted"):
                frame = vm.roots.open_frame() if kind == "rooted" else None
                if batched:
                    pool += vm.allocate_many(sizes, names, frame)
                else:
                    pool += reference_many(vm, sizes, names, frame)
            elif kind == "clear":
                vm.clear_refs(srcs[arg])
            elif kind == "move":
                if vm.h2 is not None and srcs[arg].in_h1:
                    vm.h2_tag_root(srcs[arg], f"move-{len(pool)}")
                    vm.h2_move(f"move-{len(pool)}")
                vm.major_gc()
            else:  # "read": sizes pick objects from the pool
                reads = [pool[size % len(pool)] for size in sizes]
                pattern = list(AccessPattern)[len(pool) % 2]
                if batched:
                    vm.read_objects(reads, pattern)
                else:
                    for obj in reads:
                        vm.read_object(obj, pattern)
    except (OutOfMemoryError, SegmentationFault) as exc:
        return type(exc).__name__, str(exc)
    return None


SOURCES = ("young", "old", "h2", "freed")
OPS = st.tuples(
    st.sampled_from(
        ("into", "into", "many", "rooted", "clear", "move", "read")
    ),
    st.sampled_from(SOURCES),
    st.lists(
        st.sampled_from(
            (16, 64, 1000, 3 * KiB, 4 * KiB, 6 * KiB, 20 * KiB, 120 * KiB)
        ),
        max_size=48,
    ),
    st.booleans(),
)


@pytest.mark.parametrize("kind", VM_KINDS)
@settings(max_examples=30, deadline=None)
@given(ops=st.lists(OPS, max_size=10))
def test_batch_ops_match_per_object_loops(kind, ops):
    vm, ref = make_vm(kind), make_vm(kind)
    srcs, ref_srcs = make_sources(vm), make_sources(ref)
    pool, ref_pool = list(srcs.values()), list(ref_srcs.values())
    pool.remove(srcs["freed"])
    ref_pool.remove(ref_srcs["freed"])
    for op in ops:
        error = apply(vm, srcs, pool, op, batched=True)
        ref_error = apply(ref, ref_srcs, ref_pool, op, batched=False)
        assert error == ref_error
        assert batch_state(vm) == batch_state(ref)
        if error is not None and error[0] == "OutOfMemoryError":
            break


def run_both(kind, fn):
    """Run ``fn(vm, batched)`` on a batched and a reference VM."""
    vms = []
    for batched in (True, False):
        vm = make_vm(kind)
        srcs = make_sources(vm)
        vms.append((vm, srcs, fn(vm, srcs, batched)))
    assert batch_state(vms[0][0]) == batch_state(vms[1][0])
    return vms[0]


def store_run(vm, srcs, batched, src, sizes):
    names = [f"m{i}" for i in range(len(sizes))]
    if batched:
        return vm.allocate_many(sizes, names, into=srcs[src])
    return reference_into(vm, sizes, names, srcs[src])


@pytest.mark.parametrize("src", ["young", "old"])
def test_run_into_crosses_a_promotion_failure(src):
    def fill(vm, srcs, batched):
        failures = spy_promotion_failures(vm)
        # Old-generation garbage: promoted while a frame pins it, then
        # dropped, so the next promotion finds no room.
        frame = vm.roots.open_frame()
        reference_many(vm, [4 * KiB] * 110, ["g"] * 110, frame)
        vm.major_gc()
        vm.roots.close_frame(frame)
        with vm.clock.sub_context("fill"):
            store_run(vm, srcs, batched, src, [2 * KiB, 3 * KiB] * 60)
        return failures

    vm, srcs, failures = run_both("ps", fill)
    # A scavenge in the middle of the run failed to promote the stored
    # elements and escalated to a full GC.
    assert failures
    assert vm.clock.sub_total("fill") > 0
    assert len(srcs[src].refs) == 120
    assert all(obj.space is not SpaceId.FREED for obj in srcs[src].refs)


@pytest.mark.parametrize("kind", ["ps", "pretenure", "teraheap"])
def test_old_gen_sized_element_ends_the_stretch(kind):
    sizes = [1000] * 10 + [120 * KiB] + [6 * KiB] * 10
    vm, srcs, objs = run_both(
        kind,
        lambda vm, srcs, batched: store_run(vm, srcs, batched, "old", sizes),
    )
    assert objs[10].space is SpaceId.OLD
    # The old source's card is dirty: its young referents are covered.
    assert vm.heap.card_table.dirty_count > 0


def test_h2_source_stores_through_the_mapping():
    vm, srcs, objs = run_both(
        "teraheap",
        lambda vm, srcs, batched: store_run(
            vm, srcs, batched, "h2", [64, 2 * KiB] * 20
        ),
    )
    assert srcs["h2"].in_h2
    assert vm.barrier.h2_marks == 40
    assert vm.h2.page_cache.hits + vm.h2.page_cache.misses > 0


@pytest.mark.parametrize("kind", ["ps", "teraheap"])
def test_freed_source_faults_after_the_first_element(kind):
    def store(vm, srcs, batched):
        before = vm.store.object_count
        with pytest.raises(SegmentationFault, match="write to reclaimed"):
            store_run(vm, srcs, batched, "freed", [64] * 5)
        return vm.store.object_count - before

    vm, srcs, allocated = run_both(kind, store)
    assert srcs["freed"].space is SpaceId.FREED
    assert allocated == 1


def test_g1_stores_object_by_object():
    def churn(vm, srcs, batched):
        for _ in range(4):
            store_run(vm, srcs, batched, "old", [6 * KiB] * 30)
            vm.clear_refs(srcs["old"])

    vm, srcs, _ = run_both("g1", churn)
    assert vm.barrier.barrier_count == 120
    assert vm.collector.stats.minor_count > 0


# ---------------------------------------------------------------------
# read_objects == a read_object loop
# ---------------------------------------------------------------------
def test_mixed_dram_and_h2_run_reads_in_order():
    def read(vm, srcs, batched):
        objs = store_run(vm, srcs, batched, "old", [64, 3 * KiB, 5000] * 4)
        vm.h2_tag_root(srcs["old"], "msgs")
        vm.h2_move("msgs")
        vm.major_gc()
        young = vm.allocate_many([700, 1500], ["a", "b"], into=srcs["young"])
        reads = [srcs["young"], *objs[:3], young[0], srcs["h2"], young[1]]
        reads += [objs[5], srcs["old"], srcs["young"]]
        with vm.clock.context(Bucket.SD_IO), vm.clock.sub_context("read"):
            if batched:
                vm.read_objects(reads)
            else:
                for obj in reads:
                    vm.read_object(obj)
        return reads

    vm, srcs, reads = run_both("teraheap", read)
    spaces = [obj.space for obj in reads]
    assert SpaceId.H2 in spaces and SpaceId.EDEN in spaces
    assert vm.clock.sub_total("read") > 0


def make_panthera():
    config = VMConfig(
        heap_size=gb(4),
        collector="panthera",
        panthera=PantheraConfig(dram_old_size=gb(0.01)),
        young_fraction=1.0 / 6.0,
    )
    vm = JavaVM(config)
    vm.heap.pretenure_threshold = 32 * KiB
    nvm = NVM(vm.clock)
    vm.old_gen_device = nvm
    vm.collector.nvm = nvm
    return vm


@pytest.mark.parametrize("collector", ["panthera", "memmode"])
def test_nvm_heaps_read_object_by_object(collector):
    states = []
    for batched in (True, False):
        if collector == "panthera":
            vm = make_panthera()
        else:
            vm = JavaVM(VMConfig(heap_size=gb(4), collector="memmode"))
        sizes = (64 * KiB, 64, 64 * KiB, 500)
        objs = [vm.roots.add(vm.allocate(size)) for size in sizes]
        reads = objs + objs[::-1]
        if batched:
            vm.read_objects(reads)
        else:
            for obj in reads:
                vm.read_object(obj)
        traffic = vm.old_gen_device.traffic
        states.append(
            (vm.clock.breakdown(), traffic.bytes_read, traffic.read_ops)
        )
    assert states[0] == states[1]
    assert states[0][1] > 0
