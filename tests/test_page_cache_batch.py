"""The batched H2 fault path.

The file pins store-row digests of two small PageRank-on-TeraHeap jobs,
then holds the batch paths to their per-item references:
``PageCache.access_many`` to one ``access`` per span,
``Device.read_many`` (and the fault injector's) to one ``read`` per
entry, and ``read_objects`` through the batch kernel to a
``read_object`` loop.

PageRank caches its edge RDD in H2 and re-reads every cached partition
each iteration, so each chunk read faults through the file mapping and
the kernel page cache.  The jobs below run in well under a second each:
one with a DR2 page cache of a few hundred pages, which hits, misses
and evicts, and one whose cache holds two pages, so a chunk can span
more pages than the cache has.

Unlike ``test_h2_read_path.py``'s digest, this one also hashes every
store row that is not FREED (name, size, address, space, scan factor and
references as ranks among those rows, so a store compaction moves no
digest), so
a change to how Spark materialises partitions shows up as well as a
change to page-cache LRU order, device traffic or clock charging.
"""

import hashlib
from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ranked_column, ranked_list, ranked_refs
from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.base import AccessPattern
from repro.devices.dram import DRAM
from repro.devices.mmap import BASE_PAGE
from repro.devices.nvm import NVM, NVMMemoryMode
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.errors import DeviceIOError
from repro.faults.events import FaultEvent
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultConfig, FaultPlan
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.heap.store import SPACE_H2
from repro.server.arbiter import BandwidthArbiter, TenantDevice
from repro.teraheap import h2_heap
from repro.units import GB, KiB
from test_h2_read_path import build_vm, read_path_state, read_scenarios

#: digest of :func:`th_pr_store_summary` per page-cache size
GOLDEN_TH_PR_STORE_DIGESTS = {
    "dr2-1gb": "f789cef341622d04",
    "two-pages": "e5047f182338d53a",
}

PAGE_CACHE_SIZES = {"dr2-1gb": gb(1), "two-pages": 2 * BASE_PAGE}


def run_small_th_pagerank(page_cache_size: int):
    """Run a small PageRank job on TeraHeap; return the VM and context."""
    vm = JavaVM(
        VMConfig(
            heap_size=gb(5),
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=64 * KiB
            ),
            mutator_threads=8,
            page_cache_size=page_cache_size,
            young_fraction=1.0 / 3.0,
        ),
        h2_device=NVMeSSD(Clock()),
    )
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP,
            offheap_device=NVMeSSD(vm.clock),
        ),
    )
    SPARK_WORKLOADS["PR"](ctx, gb(8), scale=0.2)
    return vm, ctx


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def th_pr_store_summary(vm, ctx) -> str:
    h2 = vm.h2
    cache = h2.page_cache
    store = vm.store
    stats = vm.collector.stats
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(vm.breakdown().items())]
    subs = vm.clock.sub_breakdown()
    lines += [f"sub.{k}={v!r}" for k, v in sorted(subs.items())]
    devices = (("h2", h2.device), ("offheap", ctx.conf.offheap_device))
    for name, device in devices:
        t = device.traffic
        counts = (t.bytes_read, t.bytes_written, t.read_ops, t.write_ops)
        lines.append(f"{name}.traffic={counts!r}")
    lines += [
        f"pc={(cache.hits, cache.misses, cache.evictions, cache.writebacks)!r}",
        f"page_faults={h2.mapping.page_faults!r}",
        f"lru={_sha(cache.lru())}",
        f"durable={_sha(list(cache.durable_image.pages.items()))}",
        f"gcs={(stats.minor_count, stats.major_count)!r}",
        f"objects={store.object_count!r}",
        f"names={_sha(ranked_list(store, 'name'))}",
        f"sizes={_sha(ranked_column(store, 'size'))}",
        f"addresses={_sha(ranked_column(store, 'address'))}",
        f"spaces={_sha(ranked_column(store, 'space'))}",
        f"scan_factors={_sha(ranked_column(store, 'scan_factor'))}",
        f"refs={_sha(ranked_refs(store))}",
    ]
    return "\n".join(lines)


@pytest.mark.parametrize("cache_size", sorted(PAGE_CACHE_SIZES))
def test_th_pagerank_store_golden_digest(cache_size):
    vm, ctx = run_small_th_pagerank(PAGE_CACHE_SIZES[cache_size])
    cache = vm.h2.page_cache
    assert cache.misses > 0
    assert cache.evictions > 0
    if cache_size == "two-pages":
        # Some cached chunk spans more pages than the cache holds.
        store, mapping = vm.store, vm.h2.mapping
        spans = [
            len(mapping.pages_for(store.address[oid], store.size[oid]))
            for oid in range(1, len(store))
            if store.space[oid] == SPACE_H2
        ]
        assert max(spans) > cache.max_pages
    else:
        # Re-reads of recently faulted pages hit.
        assert cache.hits > 0
    summary = th_pr_store_summary(vm, ctx)
    assert _sha(summary) == GOLDEN_TH_PR_STORE_DIGESTS[cache_size], summary


# ---------------------------------------------------------------------
# access_many == one access per span
# ---------------------------------------------------------------------
def cache_state(cache, clock):
    """Everything a page-cache batch can touch, floats as exact hex."""
    t = cache.device.traffic
    return {
        "lru": cache.lru(),
        "counters": (cache.hits, cache.misses, cache.evictions, cache.writebacks),
        "traffic": (t.bytes_read, t.bytes_written, t.read_ops, t.write_ops),
        "buckets": {k: v.hex() for k, v in clock.breakdown().items()},
        "subs": {k: v.hex() for k, v in clock.sub_breakdown().items()},
        "durable": list(cache.durable_image.pages.items()),
    }


SPANS = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 6)), max_size=12
)
CACHE_OPS = st.one_of(
    st.tuples(
        st.just("read"),
        SPANS,
        st.sampled_from(list(AccessPattern)),
        st.booleans(),
    ),
    st.tuples(st.just("write"), st.lists(st.integers(0, 14), unique=True)),
    st.tuples(st.just("resize"), st.integers(1, 4)),
)


def apply_cache_op(cache, clock, op, batched: bool):
    """Apply one generated op; returns what the op returned."""
    kind = op[0]
    if kind == "write":
        return cache.access(op[1], write=True)
    if kind == "resize":
        return cache.resize(op[1] * BASE_PAGE)
    _, spans, pattern, in_sub = op
    firsts = [first for first, _ in spans]
    stops = [first + length for first, length in spans]
    with clock.sub_context("batch") if in_sub else nullcontext():
        if batched:
            return cache.access_many(firsts, stops, pattern)
        hits = misses = 0
        for first, stop in zip(firsts, stops):
            span_hits, span_misses = cache.access(
                range(first, stop), pattern=pattern
            )
            hits += span_hits
            misses += span_misses
        return hits, misses


@given(
    cache_pages=st.integers(1, 4),
    ops=st.lists(CACHE_OPS, min_size=1, max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_access_many_matches_access_per_span(cache_pages, ops):
    caches = []
    for _ in range(2):
        clock = Clock()
        cache = PageCache(NVMeSSD(clock), capacity=cache_pages * BASE_PAGE)
        caches.append((cache, clock))
    (cache, clock), (ref, ref_clock) = caches
    for op in ops:
        result = apply_cache_op(cache, clock, op, batched=True)
        ref_result = apply_cache_op(ref, ref_clock, op, batched=False)
        assert result == ref_result
        assert cache_state(cache, clock) == cache_state(ref, ref_clock)


class ReadsBeforeWrites(NVMeSSD):
    """An SSD that notes how many reads preceded each write."""

    def __init__(self, clock):
        super().__init__(clock)
        self.reads_before_write = []

    def write(self, nbytes, pattern=AccessPattern.SEQUENTIAL, requests=1):
        self.reads_before_write.append(self.traffic.read_ops)
        return super().write(nbytes, pattern, requests)


def test_dirty_victims_mid_stretch_follow_their_span_reads():
    """A stretch of sure-miss spans evicting dirty pages: each writeback
    lands after the read of the span that evicted it."""
    states = []
    for batched in (True, False):
        clock = Clock()
        device = ReadsBeforeWrites(clock)
        cache = PageCache(device, capacity=4 * BASE_PAGE)
        cache.access([0, 1, 2, 3], write=True)
        cache.access([1, 3])  # LRU order: 0, 2, 1, 3 (all dirty)
        op = ("read", [(10, 2), (20, 1), (30, 3)], AccessPattern.RANDOM, True)
        apply_cache_op(cache, clock, op, batched)
        states.append((cache_state(cache, clock), device.reads_before_write))
    assert states[0] == states[1]
    # After the read that faulted the dirty pages in, the first span
    # evicts pages 0 and 2, the second page 1 and the third page 3
    # (besides the clean pages 10 and 11).
    assert states[0][1] == [2, 2, 3, 4]


# ---------------------------------------------------------------------
# Device.read_many == one read per entry
# ---------------------------------------------------------------------
def device_state(device, clock):
    t = device.traffic
    return {
        "traffic": (t.bytes_read, t.bytes_written, t.read_ops, t.write_ops),
        "buckets": {k: v.hex() for k, v in clock.breakdown().items()},
        "subs": {k: v.hex() for k, v in clock.sub_breakdown().items()},
    }


READS = st.lists(
    st.tuples(st.integers(0, 40 * KiB), st.integers(1, 5)), max_size=20
)


def tenant_ssd(clock):
    """One of two tenants' views of a shared SSD."""
    template = NVMeSSD(clock)
    arbiter = BandwidthArbiter(template.read_bw, template.write_bw)
    arbiter.register("neighbour")
    return TenantDevice(template, arbiter, "tenant").rebind(clock)


@pytest.mark.parametrize(
    "make", [NVMeSSD, NVM, DRAM, NVMMemoryMode, tenant_ssd]
)
@given(reads=READS, pattern=st.sampled_from(list(AccessPattern)))
@settings(max_examples=40, deadline=None)
def test_read_many_matches_read_loop(make, reads, pattern):
    sizes = [n for n, _ in reads]
    requests = [r for _, r in reads]
    states = []
    for batched in (True, False):
        clock = Clock()
        device = make(clock)
        if make is NVMMemoryMode:
            device.working_set = 300 * GB  # blend DRAM hits and NVM misses
        with clock.sub_context("reads"):
            if batched:
                costs = device.read_many(sizes, pattern, requests)
            else:
                costs = [device.read(n, pattern, r) for n, r in reads]
        arbiter = getattr(device, "arbiter", None)
        states.append(
            (
                [c.hex() for c in costs],
                device_state(device, clock),
                arbiter.total_bytes if arbiter is not None else None,
            )
        )
    assert states[0] == states[1]


def run_faulted_reads(config, sizes, requests, batched: bool):
    """Reads through a fault injector; returns everything they touched."""
    clock = Clock()
    plan = FaultPlan(config)
    injector = FaultInjector(NVMeSSD(clock), plan)
    error = None
    try:
        if batched:
            injector.read_many(sizes, AccessPattern.RANDOM, requests)
        else:
            for n, r in zip(sizes, requests):
                injector.read(n, AccessPattern.RANDOM, r)
    except DeviceIOError as exc:
        error = str(exc)
    return (
        error,
        plan.op_index,
        plan.schedule_digest(),
        repr(injector.log.summary()),
        [(f.time.hex(), f.op, f.kind) for f in injector.log.of(FaultEvent)],
        device_state(injector.inner, clock),
    )


@pytest.mark.parametrize("fault_seed", [1, 2, 3, 4])
def test_fault_injector_read_many_draws_every_fault(fault_seed):
    config = FaultConfig(
        fault_seed=fault_seed,
        read_error_rate=0.05,
        latency_spike_rate=0.2,
        brownout_windows=((0.02, 0.03, 0.25),),
    )
    sizes = [4096 * (1 + i % 3) for i in range(40)]
    requests = [1 + i % 2 for i in range(40)]
    batched = run_faulted_reads(config, sizes, requests, batched=True)
    assert batched == run_faulted_reads(config, sizes, requests, False)
    assert batched[4], "the plan injected no fault"
    assert "\tbrownout\t" in batched[2], "the window never opened"


# ---------------------------------------------------------------------
# read_objects through the batch kernel == a read_object loop
# ---------------------------------------------------------------------
@given(read_scenarios())
@settings(max_examples=60, deadline=None)
def test_read_objects_through_the_kernel_match_read_object_loop(scenario):
    """``test_h2_read_path``'s scenarios with every run of H2 objects,
    however short, handed to the page cache's batch kernel."""
    states = []
    for batched in (True, False):
        vm, objs = build_vm(
            scenario["sizes"],
            scenario["in_h2"],
            scenario["huge_pages"],
            scenario["cache_pages"],
        )
        for i in scenario["dirty"]:
            vm.write_ref(objs[i], None)
            if objs[i].in_h2:
                vm.h2.mutator_store(objs[i], objs[i].size)
        reads = [objs[i] for i in scenario["reads"]]
        pattern = scenario["pattern"]
        if batched:
            with mock.patch.object(h2_heap, "LOAD_MANY_MIN", 1):
                vm.read_objects(reads, pattern)
        else:
            for obj in reads:
                vm.read_object(obj, pattern)
        states.append(read_path_state(vm))
    assert states[0] == states[1]
