"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings, strategies as st

from repro.clock import Bucket, Clock
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.heap.card_table import CardTable
from repro.heap.object_model import HeapObject
from repro.heap.store import HeapStore
from repro.heap.spaces import Space, SpaceId
from repro.teraheap.h2_card_table import CardState, H2CardTable
from repro.teraheap.regions import Region, metadata_bytes_per_tb
from repro.units import KiB, MiB


# ---------------------------------------------------------------------
# Clock
# ---------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
def test_clock_now_equals_sum_of_charges(charges):
    clock = Clock()
    for c in charges:
        clock.charge(c)
    assert clock.now == sum(clock.breakdown().values())


@given(
    st.lists(
        st.tuples(st.sampled_from(list(Bucket)), st.floats(0, 1e3)),
        max_size=50,
    )
)
def test_clock_buckets_are_disjoint(charges):
    clock = Clock()
    per_bucket = {b: 0.0 for b in Bucket}
    for bucket, amount in charges:
        clock.charge(amount, bucket)
        per_bucket[bucket] += amount
    for bucket in Bucket:
        assert clock.total(bucket) == per_bucket[bucket]


# ---------------------------------------------------------------------
# Bump allocation
# ---------------------------------------------------------------------
@given(st.lists(st.integers(min_value=16, max_value=4096), max_size=60))
def test_space_objects_never_overlap(sizes):
    store = HeapStore()
    space = Space(store, SpaceId.EDEN, base=0, capacity=64 * KiB)
    placed = []
    for size in sizes:
        obj = HeapObject(size, store=store)
        if space.allocate(obj.oid):
            placed.append(obj)
    for a, b in zip(placed, placed[1:]):
        assert a.end_address() <= b.address
    assert space.used == sum(o.size for o in placed)
    assert space.used <= space.capacity


@given(st.lists(st.integers(min_value=16, max_value=2048), max_size=40))
def test_region_allocation_invariants(sizes):
    store = HeapStore()
    region = Region(store, 0, base=0x1000, capacity=16 * KiB)
    for size in sizes:
        region.allocate(HeapObject(size, store=store).oid)
    assert region.used <= region.capacity
    assert region.top == 0x1000 + region.used
    for obj in map(store.handle, region.oid_array().tolist()):
        assert region.base <= obj.address < region.end
        assert obj.end_address() <= region.end


# ---------------------------------------------------------------------
# Card tables
# ---------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=8191), max_size=50))
def test_card_table_mark_roundtrip(addresses):
    ct = CardTable(base=0, size=8192, card_size=512)
    for addr in addresses:
        ct.mark(addr)
        assert ct.is_dirty(ct.card_index(addr))
    assert ct.dirty_count <= ct.num_cards
    dirty = list(ct.dirty_cards())
    assert dirty == sorted(set(dirty))


@given(
    st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=50)
)
def test_h2_card_table_card_covers_address(addresses):
    base = 0x1_0000_0000
    table = H2CardTable(base, 1 << 20, 8 * KiB, 64 * KiB)
    for off in addresses:
        idx = table.card_index(base + off)
        lo, hi = table.card_range(idx)
        assert lo <= base + off < hi


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=127),
            st.sampled_from(list(CardState)),
        ),
        max_size=80,
    )
)
def test_h2_card_scan_sets_consistent(transitions):
    base = 0x1_0000_0000
    table = H2CardTable(base, 1 << 20, 8 * KiB, 64 * KiB)
    for idx, state in transitions:
        table.set_state(idx, state)
    minor = set(table.cards_to_scan(major=False))
    major = set(table.cards_to_scan(major=True))
    assert minor <= major  # minor scans a subset of major's set
    for idx in major - minor:
        assert table.state(idx) is CardState.OLD_GEN


# ---------------------------------------------------------------------
# Page cache
# ---------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=100), st.booleans()),
        max_size=100,
    )
)
@settings(max_examples=50)
def test_page_cache_never_exceeds_capacity(accesses):
    cache = PageCache(NVMeSSD(Clock()), capacity=8 * 4096)
    for page, write in accesses:
        cache.access([page], write=write)
        assert len(cache) <= cache.max_pages
    assert cache.hits + cache.misses == len(accesses)


# ---------------------------------------------------------------------
# Table 5 analytics
# ---------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=8))
def test_metadata_halves_per_doubling(power):
    size = (1 << power) * MiB
    assert metadata_bytes_per_tb(size * 2) * 2 == metadata_bytes_per_tb(size)


# ---------------------------------------------------------------------
# Block manager residency accounting
# ---------------------------------------------------------------------
def _bm_vm():
    from repro import JavaVM, TeraHeapConfig, VMConfig, gb
    from repro.config import GovernorConfig

    return JavaVM(
        VMConfig(
            heap_size=gb(4),
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(32), region_size=64 * KiB
            ),
            page_cache_size=gb(4),
            governor=GovernorConfig(),
        )
    )


def _bm_cache(vm, bm, rdd, index):
    from repro.frameworks.spark.rdd import MaterializedPartition

    def build(_):
        with vm.roots.frame() as frame:
            chunks = [
                frame.push(vm.allocate(8 * KiB, name=f"p{index}-c{i}"))
                for i in range(3)
            ]
            root = vm.allocate(256, refs=chunks, name=f"p{index}")
        return MaterializedPartition(root=root, chunks=chunks)

    return bm.get_or_compute(rdd, index, build)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(
                ["store", "shed", "evict", "gc", "reconcile"]
            ),
            st.integers(min_value=0, max_value=7),
        ),
        max_size=25,
    )
)
@settings(max_examples=25, deadline=None)
def test_block_manager_residency_never_drifts(ops):
    """Counters always equal ground truth recomputed from the entries.

    Whatever interleaving of stores, sheds, evictions, major GCs
    (H1 -> H2 migration) and reconciles runs, ``onheap_used`` /
    ``h2_bytes`` / ``offheap_bytes`` must equal the sum of
    ``charged_bytes()`` over entries charged to that bucket — the
    single-exit invariant of ``_remove_entry``.
    """
    from repro.frameworks.spark import BlockManager, CachePolicy, SparkConf

    vm = _bm_vm()
    bm = BlockManager(vm, SparkConf(cache_policy=CachePolicy.TERAHEAP))

    class Stub:
        rdd_id = 1
        name = "rdd-1"
        cache_label = "rdd-1"

    rdd = Stub()
    for op, index in ops:
        if op == "store":
            _bm_cache(vm, bm, rdd, index)
        elif op == "shed":
            bm.shed_blocks(16 * KiB)
        elif op == "evict":
            bm.evict_rdd(rdd)
        elif op == "gc":
            vm.major_gc()
        else:
            bm.reconcile_residency()
        h1 = h2 = off = 0
        for entry in bm.entries.values():
            assert entry.charged in ("h1", "h2", "offheap")
            if entry.charged == "h1":
                h1 += entry.charged_bytes()
            elif entry.charged == "h2":
                h2 += entry.charged_bytes()
            else:
                off += entry.charged_bytes()
        assert bm.onheap_used == h1
        assert bm.h2_bytes == h2
        assert bm.offheap_bytes == off
        assert min(bm.onheap_used, bm.h2_bytes, bm.offheap_bytes) >= 0
