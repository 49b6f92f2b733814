"""The H2 mutator read path: a pinned Spark PageRank-on-TeraHeap digest.

PageRank caches its edge RDD in H2 and re-reads every cached partition
each iteration, so each chunk read faults through the file mapping and
the kernel page cache.  The job below is sized so the page cache both
hits (re-reads of recently faulted pages) and misses (the edge set
outgrows DR2).  The digest covers every simulated quantity the read
path influences, so any change to clock charging, page-cache LRU order
or device traffic shows up as a mismatch.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.base import AccessPattern
from repro.devices.mmap import BASE_PAGE, HUGE_PAGE
from repro.devices.nvme import NVMeSSD
from repro.errors import SegmentationFault
from repro.faults.plan import FaultConfig
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.heap.object_model import SpaceId
from repro.heap.store import HeapStore
from repro.units import KiB

#: digest of :func:`pr_summary` for the pinned PageRank job below
GOLDEN_TH_PR_DIGEST = "9d849da38574ff43"


def run_th_pagerank():
    """Run the pinned PageRank job on TeraHeap; return the VM and context."""
    dram, dr2 = gb(12), gb(6)
    vm = JavaVM(
        VMConfig(
            heap_size=dram - dr2,
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(256), region_size=64 * KiB
            ),
            mutator_threads=8,
            page_cache_size=dr2,
            young_fraction=1.0 / 3.0,
        ),
        h2_device=NVMeSSD(Clock()),
        # A private store: the object count must not depend on what
        # earlier tests allocated in the process-default one.
        store=HeapStore(),
    )
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP,
            offheap_device=NVMeSSD(vm.clock),
        ),
    )
    SPARK_WORKLOADS["PR"](ctx, gb(12), scale=0.3)
    return vm, ctx


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def pr_summary(vm, ctx) -> str:
    h2 = vm.h2
    cache = h2.page_cache
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(vm.breakdown().items())]
    subs = vm.clock.sub_breakdown()
    lines += [f"sub.{k}={v!r}" for k, v in sorted(subs.items())]
    devices = (("h2", h2.device), ("offheap", ctx.conf.offheap_device))
    for name, device in devices:
        t = device.traffic
        lines += [
            f"{name}.bytes_read={t.bytes_read!r}",
            f"{name}.bytes_written={t.bytes_written!r}",
            f"{name}.read_ops={t.read_ops!r}",
            f"{name}.write_ops={t.write_ops!r}",
        ]
    lines += [
        f"pc_hits={cache.hits!r}",
        f"pc_misses={cache.misses!r}",
        f"pc_evictions={cache.evictions!r}",
        f"pc_writebacks={cache.writebacks!r}",
        f"page_faults={h2.mapping.page_faults!r}",
        f"lru={_sha(list(cache._pages.items()))}",
        f"durable={_sha(list(cache.durable_image.pages.items()))}",
        f"h2_bytes_moved={h2.bytes_moved!r}",
        f"objects={vm.store.object_count!r}",
    ]
    return "\n".join(lines)


def test_th_pagerank_golden_digest():
    vm, ctx = run_th_pagerank()
    cache = vm.h2.page_cache
    # The job exercises both sides of the page cache.
    assert cache.hits > 0
    assert cache.misses > 0
    assert cache.evictions > 0
    summary = pr_summary(vm, ctx)
    assert _sha(summary) == GOLDEN_TH_PR_DIGEST, summary


# ---------------------------------------------------------------------
# Batched reads == a read_object loop
# ---------------------------------------------------------------------
def build_vm(sizes, in_h2, huge_pages, cache_pages, faults=None):
    """A TeraHeap VM holding one rooted object per size.

    Objects flagged in ``in_h2`` are tagged and moved to H2 by a major
    GC; the rest stay in H1.  The page cache holds ``cache_pages``
    mapping pages, so a handful of objects already forces evictions.
    ``faults`` optionally puts the VM under a resilience policy.
    """
    page = HUGE_PAGE if huge_pages else BASE_PAGE
    vm = JavaVM(
        VMConfig(
            heap_size=gb(1),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(1),
                region_size=64 * KiB,
                huge_pages=huge_pages,
            ),
            page_cache_size=cache_pages * page,
            faults=faults,
        ),
        store=HeapStore(),
    )
    objs = []
    for i, size in enumerate(sizes):
        obj = vm.allocate(size, name=f"o{i}")
        vm.roots.add(obj)
        if in_h2[i]:
            vm.h2_tag_root(obj, f"label{i % 3}")
        objs.append(obj)
    for label in ("label0", "label1", "label2"):
        vm.h2_move(label)
    vm.major_gc()
    return vm, objs


def read_path_state(vm):
    h2 = vm.h2
    cache = h2.page_cache
    traffic = h2.device.traffic
    return {
        "buckets": repr(sorted(vm.breakdown().items())),
        "sub": repr(sorted(vm.clock.sub_breakdown().items())),
        "cache": (cache.hits, cache.misses, cache.evictions, cache.writebacks),
        "lru": list(cache._pages.items()),
        "traffic": (
            traffic.bytes_read,
            traffic.bytes_written,
            traffic.read_ops,
            traffic.write_ops,
        ),
        "page_faults": h2.mapping.page_faults,
        "durable": list(cache.durable_image.pages.items()),
    }


@st.composite
def read_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    sizes = draw(
        st.lists(
            st.integers(min_value=64, max_value=3 * BASE_PAGE),
            min_size=n,
            max_size=n,
        )
    )
    in_h2 = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    index = st.integers(min_value=0, max_value=n - 1)
    return dict(
        sizes=sizes,
        in_h2=in_h2,
        huge_pages=draw(st.booleans()),
        cache_pages=draw(st.integers(min_value=1, max_value=4)),
        dirty=draw(st.lists(index, max_size=4)),
        reads=draw(st.lists(index, min_size=1, max_size=30)),
        pattern=draw(st.sampled_from(list(AccessPattern))),
    )


@given(read_scenarios())
@settings(max_examples=60, deadline=None)
def test_read_objects_matches_read_object_loop(scenario):
    states = []
    for batched in (True, False):
        vm, objs = build_vm(
            scenario["sizes"],
            scenario["in_h2"],
            scenario["huge_pages"],
            scenario["cache_pages"],
        )
        # Dirty some pages first, so the reads evict dirty pages and
        # interleave writebacks with their faults.
        for i in scenario["dirty"]:
            vm.write_ref(objs[i], None)
            if objs[i].in_h2:
                vm.h2.mutator_store(objs[i], objs[i].size)
        reads = [objs[i] for i in scenario["reads"]]
        pattern = scenario["pattern"]
        if batched:
            vm.read_objects(reads, pattern)
        else:
            for obj in reads:
                vm.read_object(obj, pattern)
        states.append(read_path_state(vm))
    assert states[0] == states[1]


@pytest.mark.parametrize("huge_pages", [False, True])
def test_freed_object_mid_list_faults_at_the_same_point(huge_pages):
    states = []
    for batched in (True, False):
        sizes = [5000, 9000, 300, 12000, 4000, 700]
        vm, objs = build_vm(sizes, [True] * len(sizes), huge_pages, 2)
        # Objects 0 and 3 carry label0, alone in their region: dropping
        # their roots lets the next major GC reclaim the region.
        for i in (0, 3):
            vm.roots.remove(objs[i])
        vm.major_gc()
        assert objs[0].space is SpaceId.FREED
        vm.write_ref(objs[1], None)
        reads = [objs[1], objs[2], objs[4], objs[0], objs[5]]
        with pytest.raises(SegmentationFault):
            if batched:
                vm.read_objects(reads)
            else:
                for obj in reads:
                    vm.read_object(obj)
        states.append(read_path_state(vm))
    assert states[0] == states[1]
    # The reads before the freed object were charged.
    assert states[0]["page_faults"] > 0


@pytest.mark.parametrize("fault_seed", [1, 2, 3])
def test_faulted_reads_retry_object_by_object(fault_seed):
    """Under a fault plan every object stays its own retry unit and
    SIGBUS consult, so the batch draws the same fault schedule."""
    faults = FaultConfig(
        fault_seed=fault_seed,
        read_error_rate=0.2,
        write_error_rate=0.1,
        sigbus_rate=0.3,
    )
    sizes = [5000, 9000, 300, 12000, 4000, 700, 6000, 2000]
    reads = [0, 1, 2, 3, 4, 5, 6, 7, 3, 0, 6, 1]
    states = []
    for batched in (True, False):
        vm, objs = build_vm(sizes, [True] * len(sizes), False, 2, faults)
        vm.write_ref(objs[1], None)
        if batched:
            vm.read_objects([objs[i] for i in reads])
        else:
            for i in reads:
                vm.read_object(objs[i])
        state = read_path_state(vm)
        state["faults"] = (
            vm.resilience.plan.op_index,
            vm.resilience.failures,
            vm.h2.mapping.sigbus_count,
            repr(vm.resilience.log.summary()),
        )
        states.append(state)
    assert states[0] == states[1]
    assert states[0]["faults"][2] > 0  # some loads took a SIGBUS


def test_load_many_stops_at_the_span_outside_the_mapping():
    vm, objs = build_vm([5000, 9000], [True, True], False, 4)
    mapping = vm.h2.mapping
    end = mapping.base + mapping.size
    spans = [(objs[0].address, objs[0].size), (end - 8, 64), (end, 8)]
    cache = mapping.cache

    def touched():
        return cache.hits + cache.misses

    before = touched()
    with pytest.raises(SegmentationFault) as batched:
        mapping.load_many(spans)
    # The span before the bad one was loaded, the bad one not at all.
    assert touched() - before == len(mapping.pages_for(*spans[0]))
    before = touched()
    with pytest.raises(SegmentationFault) as single:
        mapping.load(*spans[1])
    assert str(batched.value) == str(single.value)
    assert touched() == before
