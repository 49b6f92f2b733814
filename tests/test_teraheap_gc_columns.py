"""TeraHeap's major GC on store columns.

A pinned state golden over H2's metadata comes first.  Three jobs cross full collections that move objects to H2 and reclaim
regions: a small Spark PageRank and a small Giraph CDLP on TeraHeap, and
a synthetic job with size-aware placement and a promotion buffer smaller
than a region, which drives mid-buffer flushes and direct writes (no
bench workload reaches them).  The synthetic job runs under both
cross-region policies.  Each digest covers the region table (index,
start, top, label, live bit and object ranks in order), each region's
sorted dependencies on a line of their own, the open region per label,
the free-index order, the liveness log, the live moved rows' rank,
address, space, region, label and flags (a rank is a row's position
among the rows that are not FREED, so a store compaction moves no
digest), every explicit promotion write in order (span
and safepoint), the promotion counters, the H2 device traffic, the page
cache's LRU order and dirty bits, and the fenced forward-reference
count.

The rest checks the column paths against the one-object-at-a-time
reference in ``helpers``: placement and promotion flushes (denials,
crashes and out-of-memory raises included) must leave equal store
columns, region tables, device traffic, page-cache state and clock
totals, and the forward-reference fences must count and mark what one
check per edge does.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ReferencePromotion,
    live_rows,
    make_group,
    ranked,
    ranked_column,
    reference_assign_h2_addresses,
    reference_compact_movers,
    reference_fence,
)
from repro import Clock, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.config import GovernorConfig
from repro.devices.nvme import NVMeSSD
from repro.errors import (
    DeviceFullError,
    OutOfMemoryError,
    SegmentationFault,
    SimulatedCrash,
)
from repro.faults.plan import FaultConfig
from repro.frameworks.giraph import CDLPProgram, GiraphConf, GiraphJob, GiraphMode
from repro.frameworks.giraph.workloads import make_giraph_graph
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.gc.parallel_scavenge import Movers
from repro.heap.store import SPACE_H2, SPACE_OLD
from repro.teraheap.promotion import DIRECT_WRITE_THRESHOLD
from repro.units import KiB, MiB

#: digest of :func:`gc_state` per pinned job
GOLDEN_TH_GC_STATE_DIGESTS = {
    "th-pr": "29a645c435910a10",
    "th-cdlp": "fdeeb69835ae99f7",
    "sized-deps": "84859ed851aacfd8",
    "sized-groups": "cbc60a1305f019bb",
}


def spy_writes(vm) -> list:
    """Log every explicit H2 write as (address, nbytes, safepoint) or
    (spans, safepoint), in call order."""
    mapping = vm.h2.mapping
    log = []
    write, write_many = mapping.write_explicit, mapping.write_explicit_many

    def spied(address, nbytes, safepoint="h2_write"):
        log.append((address, nbytes, safepoint))
        return write(address, nbytes, safepoint=safepoint)

    def spied_many(spans, safepoint="h2_write"):
        spans = list(spans)
        log.append((spans, safepoint))
        return write_many(spans, safepoint=safepoint)

    mapping.write_explicit = spied
    mapping.write_explicit_many = spied_many
    return log


def run_th_pr():
    dram, dr2 = gb(6), gb(3)
    vm = JavaVM(
        VMConfig(
            heap_size=dram - dr2,
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=64 * KiB
            ),
            mutator_threads=8,
            page_cache_size=dr2,
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
    writes = spy_writes(vm)
    SPARK_WORKLOADS["PR"](ctx, gb(8), scale=0.3)
    return vm, writes


def run_th_cdlp():
    dram = gb(4)
    heap = int(dram * 60 / 85)
    vm = JavaVM(
        VMConfig(
            heap_size=heap,
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=16 * KiB
            ),
            mutator_threads=8,
            page_cache_size=dram - heap,
        ),
        h2_device=NVMeSSD(Clock()),
    )
    graph = make_giraph_graph(gb(4), seed=11)
    job = GiraphJob(
        vm,
        GiraphConf(mode=GiraphMode.TERAHEAP, device=NVMeSSD(vm.clock)),
        graph,
    )
    writes = spy_writes(vm)
    job.load_graph()
    job.run(CDLPProgram(graph))
    return vm, writes


#: object sizes the synthetic job draws from: small objects that share
#: a promotion buffer, objects above a quarter region (size-aware
#: ``:large`` labels) and objects at or above the direct-write threshold
SIZED_CHOICES = (
    512, 4 * KiB, 24 * KiB, 96 * KiB, 300 * KiB, 1100 * KiB,
    DIRECT_WRITE_THRESHOLD, 2 * MiB,
)


def run_sized(region_policy: str, seed: int = 3):
    """Tagged groups of mixed sizes, moved by hint and by pressure.

    H1 index objects keep references into older groups, so marking
    fences forward references; dropped roots let whole regions die.
    """
    vm = JavaVM(
        VMConfig(
            heap_size=256 * MiB,
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=1024 * MiB,
                region_size=4 * MiB,
                size_aware_placement=True,
                promotion_buffer_size=256 * KiB,
                region_policy=region_policy,
            ),
            page_cache_size=16 * MiB,
        ),
        h2_device=NVMeSSD(Clock()),
    )
    writes = spy_writes(vm)
    rng = random.Random(seed)
    roots = []
    index_refs = []
    for step in range(24):
        with vm.roots.frame() as frame:
            children = [
                frame.push(
                    vm.allocate(rng.choice(SIZED_CHOICES), name=f"g{step}-{i}")
                )
                for i in range(rng.randint(3, 14))
            ]
            if index_refs and rng.random() < 0.5:
                # A group member that references an older (moved) group.
                children.append(
                    frame.push(
                        vm.allocate(
                            64, refs=[rng.choice(index_refs)], name=f"x{step}"
                        )
                    )
                )
            root = vm.allocate(64 + 8 * len(children), refs=children)
        vm.roots.add(root)
        roots.append(root)
        index_refs.extend(rng.sample(children, min(2, len(children))))
        vm.h2_tag_root(root, f"g{step}")
        if rng.random() < 0.7:
            vm.h2_move(f"g{step}")
        if step % 3 == 2:
            # An H1 index over a few moved objects: forward references.
            index = vm.allocate(
                64, refs=rng.sample(index_refs, min(4, len(index_refs)))
            )
            vm.roots.add(index)
            vm.major_gc()
            vm.roots.remove(index)
        if len(roots) > 6 and rng.random() < 0.6:
            victim = roots.pop(rng.randrange(len(roots) - 3))
            vm.roots.remove(victim)
            index_refs = [
                o for o in index_refs if o.space.value != "freed"
            ]
    vm.major_gc()
    return vm, writes


JOBS = {
    "th-pr": run_th_pr,
    "th-cdlp": run_th_cdlp,
    "sized-deps": lambda: run_sized("deps"),
    "sized-groups": lambda: run_sized("groups"),
}


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def gc_state(vm, writes) -> str:
    h2 = vm.h2
    store = vm.store
    regions = [
        (
            index,
            r.base,
            r.top,
            r.label,
            r.live,
            ranked(store, r.oid_array()),
        )
        for index, r in sorted(h2.regions.items())
    ]
    deps = [(index, sorted(r.deps)) for index, r in sorted(h2.regions.items())]
    liveness = [
        (
            e.total_objects,
            e.live_objects,
            e.used_bytes,
            e.live_bytes,
            e.capacity,
        )
        for e in h2.liveness_log
    ]
    # Every live row placed in H2 carries a label.
    keep = live_rows(store).tolist()
    rows = [
        (
            rank,
            store.address[oid],
            store.space[oid],
            store.region_id[oid],
            store.label[oid],
            store.flags[oid],
        )
        for rank, oid in enumerate(keep)
        if store.space[oid] == SPACE_H2 or store.label[oid] is not None
    ]
    promotion = h2.promotion
    traffic = h2.device.traffic
    lines = [
        f"regions={_sha(regions)}",
        f"deps={_sha(deps)}",
        f"open_by_label={_sha(list(h2._open_by_label.items()))}",
        f"free_indices={_sha(list(h2._free_indices))}",
        f"liveness_log={_sha(liveness)}",
        f"rows={_sha(rows)}",
        f"spaces={_sha(ranked_column(store, 'space'))}",
        f"region_ids={_sha(ranked_column(store, 'region_id', np.int64))}",
        f"addresses={_sha(ranked_column(store, 'address'))}",
        f"flags={_sha(ranked_column(store, 'flags'))}",
        f"writes={_sha(writes)}",
        f"promotion=({promotion.objects_written!r}, "
        f"{promotion.bytes_written!r}, {promotion.direct_writes!r})",
        f"h2_device=({traffic.bytes_read!r}, {traffic.bytes_written!r}, "
        f"{traffic.read_ops!r}, {traffic.write_ops!r})",
        f"lru={_sha(h2.page_cache.lru())}",
        f"pc=({h2.page_cache.hits!r}, {h2.page_cache.misses!r}, "
        f"{h2.page_cache.evictions!r}, {h2.page_cache.writebacks!r})",
        f"forward_refs_fenced={vm.collector.forward_refs_fenced!r}",
        f"h2_counters=({h2.objects_moved!r}, {h2.bytes_moved!r}, "
        f"{h2.regions_allocated_total!r}, {h2.regions_reclaimed!r}, "
        f"{h2.bytes_reclaimed!r}, {vm.collector.h2_transfers_denied!r})",
        f"gcs=({vm.collector.stats.minor_count!r}, "
        f"{vm.collector.stats.major_count!r})",
        f"buckets={_sha(sorted(vm.breakdown().items()))}",
        f"subs={_sha(sorted(vm.clock.sub_breakdown().items()))}",
    ]
    return "\n".join(lines)


@pytest.fixture(scope="module", params=sorted(JOBS))
def job(request):
    return request.param, *JOBS[request.param]()


def test_teraheap_gc_state_golden_digest(job):
    name, vm, writes = job
    h2 = vm.h2
    # Each job moves objects and fences edges; all but PageRank (whose
    # cached partitions stay live) reclaim regions and reuse them.
    assert h2.objects_moved > 0
    assert vm.collector.forward_refs_fenced > 0
    safepoints = {w[-1] for w in writes}
    assert "h2_flush" in safepoints
    if name != "th-pr":
        assert h2.regions_reclaimed > 0
        assert h2.regions_allocated_total > len(h2.regions)
    if name.startswith("sized"):
        # Mid-buffer flushes, direct writes and size-aware labels.
        assert "promotion_flush" in safepoints
        assert h2.promotion.direct_writes > 0
        assert any(
            r.label and r.label.endswith(":large") for r in h2.regions.values()
        )
    state = gc_state(vm, writes)
    assert _sha(state) == GOLDEN_TH_GC_STATE_DIGESTS[name], state


# ---------------------------------------------------------------------
# Column placement and promotion flushes == the per-object reference
# ---------------------------------------------------------------------
def size_for(kind: str, region_size: int) -> int:
    """Object sizes relative to the region: exact fractions tile a
    region exactly, ``over`` exceeds it, ``direct`` goes straight to
    the device when the region is large enough to hold it."""
    return {
        "tiny": 16,
        "small": 512,
        "eighth": region_size // 8,
        "quarter": region_size // 4,
        "half": region_size // 2,
        "whole": region_size,
        "over": region_size + 16,
        "direct": min(DIRECT_WRITE_THRESHOLD, region_size),
        "direct+": min(DIRECT_WRITE_THRESHOLD + 512, region_size),
    }[kind]


SIZE_KINDS = st.sampled_from(
    ["tiny", "small", "eighth", "quarter", "half", "whole", "direct",
     "direct+"] * 4 + ["over"]
)

FAULTS = {
    "none": None,
    "device-full": FaultConfig(seed=5, device_full_rate=0.3),
    "write-errors": FaultConfig(
        seed=6, device_full_rate=0.1, write_error_rate=0.2
    ),
    "crash": FaultConfig(seed=7, crash_point="major_compact", crash_after=2),
    "crash-rate": FaultConfig(seed=8, crash_rate=0.3),
}


def placement_vm(setup) -> JavaVM:
    region_size = setup["region_size"]
    vm = JavaVM(
        VMConfig(
            heap_size=256 * MiB,
            collector="ps",
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=setup["regions"] * region_size,
                region_size=region_size,
                size_aware_placement=setup["size_aware"],
                promotion_buffer_size=setup["buffer"],
            ),
            page_cache_size=setup["cache_pages"] * 4 * KiB,
            faults=FAULTS[setup["faults"]],
            governor=GovernorConfig() if setup["governor"] else None,
        ),
        h2_device=NVMeSSD(Clock()),
    )
    vm.h2.byte_budget = (
        None if setup["budget"] is None else setup["budget"] * region_size
    )
    return vm


def run_placement(setup, cycles, reference: bool):
    """Allocate each cycle's movers in H1, then place and write them
    (column paths, or the reference) and reclaim the regions the
    cycle's live bits leave dead.  Returns the VM, the write log, what
    each cycle placed and the exception that ended the run, if any."""
    vm = placement_vm(setup)
    region_size = setup["region_size"]
    objs = []
    for movers, _ in cycles:
        row = []
        for kind, label in movers:
            obj = vm.allocate(size_for(kind, region_size))
            vm.roots.add(obj)
            row.append((obj, label))
        objs.append(row)
    collector, h2 = vm.collector, vm.h2
    if reference:
        h2.promotion = ReferencePromotion(h2.mapping, setup["buffer"])
    writes = spy_writes(vm)
    placed_log = []
    outcome = None
    try:
        for epoch, (row, (_, live_bits)) in enumerate(zip(objs, cycles), 1):
            for obj, _ in row:
                obj.h2_candidate = True
            if reference:
                placed = reference_assign_h2_addresses(collector, row, epoch)
                placed_log.append([(o.oid, lbl) for o, lbl in placed])
                reference_compact_movers(collector, placed)
            else:
                movers = Movers([o.oid for o, _ in row], [lbl for _, lbl in row])
                placed = collector.assign_h2_addresses(movers, epoch)
                placed_log.append(list(zip(placed.oids, placed.labels)))
                assert placed.nbytes == sum(vm.store.size[o] for o in placed.oids)
                collector.compact_movers(placed)
            h2.reset_live_bits()
            for index, live in zip(sorted(h2.regions), live_bits):
                if live:
                    h2.mark_region_live(index)
            h2.reclaim_dead_regions(epoch)
    except (OutOfMemoryError, DeviceFullError, SimulatedCrash) as exc:
        outcome = (type(exc).__name__, str(exc))
    return vm, writes, placed_log, outcome


def placement_state(vm, writes) -> dict:
    h2, store, collector = vm.h2, vm.store, vm.collector
    cache, traffic = h2.page_cache, h2.device.traffic
    state = {
        c: getattr(store, c).tobytes()
        for c in ("address", "space", "region_id", "flags", "size")
    }
    res = h2.resilience
    state.update(
        label=list(store.label),
        regions=[
            (
                index,
                r.base,
                r.top,
                r.label,
                r.live,
                sorted(r.deps),
                r.oid_array().tolist(),
                r.allocated_epoch,
            )
            for index, r in sorted(h2.regions.items())
        ],
        open_by_label=list(h2._open_by_label.items()),
        free_indices=list(h2._free_indices),
        h2_counters=(
            h2.objects_moved, h2.bytes_moved, h2.regions_allocated_total,
            h2.regions_reclaimed, h2.bytes_reclaimed, h2._next_fresh,
        ),
        liveness=[
            (e.total_objects, e.used_bytes, e.capacity)
            for e in h2.liveness_log
        ],
        promotion=(
            h2.promotion.objects_written,
            h2.promotion.bytes_written,
            h2.promotion.direct_writes,
        ),
        writes=writes,
        traffic=(
            traffic.bytes_read, traffic.bytes_written,
            traffic.read_ops, traffic.write_ops,
        ),
        cache=(
            cache.lru(), cache.hits, cache.misses,
            cache.evictions, cache.writebacks,
        ),
        collector=(
            collector.h2_transfers_denied,
            collector._cycle_denied,
            collector._cycle_placed_bytes,
        ),
        totals={k: v.hex() for k, v in vm.clock.breakdown().items()},
        subs={k: v.hex() for k, v in vm.clock.sub_breakdown().items()},
        resilience=None if res is None else (
            res.failures,
            res.degraded,
            res.plan.op_index,
            [r.line() for r in res.plan.schedule],
            dict(res.plan.safepoint_hits),
        ),
    )
    return state


def check_placement(setup, cycles):
    new = run_placement(setup, cycles, reference=False)
    ref = run_placement(setup, cycles, reference=True)
    assert new[2:] == ref[2:]
    assert placement_state(*new[:2]) == placement_state(*ref[:2])
    return new


SETUPS = st.fixed_dictionaries(
    {
        "region_size": st.sampled_from([16 * KiB, 2 * MiB]),
        "regions": st.sampled_from([6, 64]),
        "size_aware": st.booleans(),
        "buffer_share": st.sampled_from([4, 1, 0.5]),
        "cache_pages": st.sampled_from([4, 1024]),
        "budget": st.sampled_from([None, None, 2, 5]),
        "governor": st.booleans(),
        "faults": st.sampled_from(sorted(FAULTS)),
    }
).map(
    lambda s: dict(s, buffer=int(s["region_size"] / s.pop("buffer_share")))
)
CYCLES = st.lists(
    st.tuples(
        st.lists(
            st.tuples(SIZE_KINDS, st.sampled_from(["a", "b", "c"])),
            max_size=14,
        ),
        st.lists(st.booleans(), min_size=8, max_size=8),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=100, deadline=None)
@given(setup=SETUPS, cycles=CYCLES)
def test_column_placement_matches_per_object_reference(setup, cycles):
    check_placement(setup, cycles)


PINNED = dict(
    region_size=2 * MiB, regions=64, size_aware=True, buffer=512 * KiB,
    cache_pages=1024, budget=None, governor=False, faults="none",
)


def pinned(**changes):
    return dict(PINNED, **changes)


def test_mid_buffer_flushes_and_direct_writes_match():
    cycle = [(kind, "a") for kind in ("eighth",) * 6 + ("direct", "small")]
    cycle += [("quarter", "b"), ("eighth", "a"), ("direct+", "b")]
    vm, writes, _, outcome = check_placement(
        pinned(), [(cycle, [True] * 8)]
    )
    assert outcome is None
    safepoints = [w[-1] for w in writes]
    assert "promotion_flush" in safepoints
    assert vm.h2.promotion.direct_writes == 2
    # Size-aware placement sent the big objects to ``:large`` regions.
    assert {r.label for r in vm.h2.regions.values()} >= {"a", "a:large"}


def test_exactly_full_regions_match():
    cycle = [("quarter", "a")] * 8 + [("whole", "a"), ("half", "b")] * 2
    vm, _, placed, outcome = check_placement(
        pinned(size_aware=False), [(cycle, [False] * 8)]
    )
    assert outcome is None and len(placed[0]) == len(cycle)
    assert vm.h2.regions_reclaimed == len(vm.h2.regions)


def test_object_larger_than_a_region_raises_with_equal_state():
    cycle = [("small", "a"), ("half", "b"), ("over", "a"), ("small", "c")]
    vm, _, _, outcome = check_placement(pinned(), [(cycle, [True] * 8)])
    assert outcome[0] == "OutOfMemoryError"
    assert "exceeds H2 region size" in outcome[1]
    assert vm.h2.objects_moved == 2


def test_byte_budget_denies_mid_cycle():
    cycle = [("half", "a")] * 4 + [("half", "b")] * 2
    vm, _, placed, outcome = check_placement(
        pinned(size_aware=False, budget=1), [(cycle, [True] * 8)] * 2
    )
    assert outcome is None
    assert [len(p) for p in placed] == [2, 0]
    assert vm.collector.h2_transfers_denied == 10


def test_governor_fails_fast_on_the_first_denial():
    cycle = [("eighth", label) for label in "abcabcabc"]
    vm, _, placed, outcome = check_placement(
        pinned(governor=True, faults="device-full", regions=64),
        [(cycle, [True] * 8)] * 3,
    )
    assert outcome is None
    assert vm.collector.h2_transfers_denied > 0
    assert any(len(p) < len(cycle) for p in placed)


def test_free_index_reuse_matches():
    first = [("half", label) for label in "aabbcc"]
    second = [("quarter", label) for label in "cba"]
    vm, _, _, outcome = check_placement(
        pinned(size_aware=False),
        [(first, [True, False, True, False] * 2), (second, [False] * 8)],
    )
    assert outcome is None
    assert vm.h2.regions_allocated_total > len(vm.h2.regions)


def test_crash_plan_kills_at_the_same_copy_batch():
    cycle = [("quarter", label) for label in "aabbccaa"]
    _, _, _, outcome = check_placement(
        pinned(size_aware=False, buffer=512 * KiB, faults="crash"),
        [(cycle, [True] * 8)],
    )
    assert outcome == (
        "SimulatedCrash",
        "simulated kill mid major-GC compaction (copy batch 1)",
    )


# ---------------------------------------------------------------------
# Forward-reference fences == one check per edge
# ---------------------------------------------------------------------
def fence_vm(groups, index_refs, free_group, reference: bool):
    """Groups moved to H2 by one major GC; rooted H1 index objects then
    reference group members (by group and member position) and are all
    that keeps the groups alive.  With ``free_group``, a second GC frees
    that group's regions before the index objects are built."""
    vm = JavaVM(
        VMConfig(
            heap_size=64 * MiB,
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=64 * MiB, region_size=16 * KiB
            ),
            page_cache_size=1 * MiB,
        )
    )
    if reference:
        vm.collector.on_forward_references = (
            lambda targets: reference_fence(vm.collector, targets)
        )
    members = []
    roots = []
    for g, count in enumerate(groups):
        root, children = make_group(vm, count=count, size=2 * KiB, name=f"g{g}")
        vm.h2_tag_root(root, f"g{g}")
        vm.h2_move(f"g{g}")
        roots.append(root)
        members.append([root] + children)
    vm.major_gc()
    if free_group is not None:
        vm.roots.remove(roots[free_group])
        vm.major_gc()
    for root in roots:
        vm.roots.remove(root)
    for refs in index_refs:
        targets = [
            members[g % len(members)][m % len(members[g % len(members)])]
            for g, m in refs
        ]
        vm.roots.add(vm.allocate(64, refs=targets))
    return vm


def forward_edges(vm) -> int:
    """H1-to-H2 edges a full marking sees: from roots outside H1 and from
    H1 objects reachable from the roots through H1."""
    store = vm.store
    count = 0
    stack = []
    for oid in vm.roots.oids():
        if store.space[oid] <= SPACE_OLD:
            stack.append(oid)
        else:
            count += 1
    seen = set()
    while stack:
        oid = stack.pop()
        if oid in seen:
            continue
        seen.add(oid)
        for t in store.refs[oid]:
            if store.space[t] <= SPACE_OLD:
                stack.append(t)
            else:
                count += 1
    return count


def fence_run(groups, index_refs, free_group, reference):
    vm = fence_vm(groups, index_refs, free_group, reference)
    expected = forward_edges(vm)
    before = vm.collector.forward_refs_fenced
    try:
        vm.major_gc()
        outcome = None
    except SegmentationFault as exc:
        outcome = str(exc)
    h2 = vm.h2
    return (
        outcome,
        vm.collector.forward_refs_fenced - before,
        expected,
        [(i, r.live) for i, r in sorted(h2.regions.items())],
    )


@settings(max_examples=40, deadline=None)
@given(
    groups=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    index_refs=st.lists(
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 20)), max_size=6),
        max_size=6,
    ),
)
def test_fences_count_every_edge_and_mark_the_same_regions(groups, index_refs):
    new = fence_run(groups, index_refs, None, reference=False)
    ref = fence_run(groups, index_refs, None, reference=True)
    assert new == ref
    outcome, fenced, expected, _ = new
    assert outcome is None
    assert fenced == expected


@settings(max_examples=25, deadline=None)
@given(
    groups=st.lists(st.integers(1, 8), min_size=2, max_size=4),
    index_refs=st.lists(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 20)),
            min_size=1,
            max_size=5,
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_freed_target_faults_like_the_per_edge_fence(groups, index_refs):
    new = fence_run(groups, index_refs, 0, reference=False)
    ref = fence_run(groups, index_refs, 0, reference=True)
    assert new == ref
    if any(g % len(groups) == 0 for refs in index_refs for g, _ in refs):
        assert new[0].startswith("live H1 object references reclaimed")


def test_exhausted_h2_raises_with_equal_state():
    # Label "a" fills its region, "b" opens the last free one; the next
    # "a" object needs a region H2 no longer has.
    cycle = [("half", "a"), ("half", "a"), ("quarter", "b"), ("half", "a")]
    vm, _, _, outcome = check_placement(
        pinned(size_aware=False, regions=2), [(cycle, [True] * 8)]
    )
    assert outcome == ("OutOfMemoryError", "H2 exhausted: no free regions")
    assert [r.used for r in vm.h2.regions.values()] == [2 * MiB, 512 * KiB]
