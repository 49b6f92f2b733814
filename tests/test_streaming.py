"""Block-streaming executor: budgets, backpressure, spills, satellites."""

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.__main__ import main
from repro.clock import Bucket
from repro.config import GovernorConfig
from repro.frameworks.spark import (
    BlockManager,
    CachePolicy,
    SparkConf,
    SparkContext,
    StreamingExecutor,
)
from repro.frameworks.spark.rdd import MaterializedPartition
from repro.frameworks.spark.shuffle import ShuffleManager
from repro.metrics.chrome_trace import streaming_counter_events
from repro.metrics.trace import streaming_blocks_csv
from repro.units import KiB


def make_ctx(
    policy=CachePolicy.TERAHEAP,
    heap=gb(4),
    partitions=4,
    max_inflight_blocks=4,
    target_block_bytes=32 * KiB,
    governed=False,
):
    thc = (
        TeraHeapConfig(
            enabled=True,
            h2_size=gb(32),
            region_size=64 * KiB,
            promotion_buffer_size=32 * KiB,
            writeback_policy="commit",
        )
        if policy is CachePolicy.TERAHEAP
        else TeraHeapConfig()
    )
    vm = JavaVM(
        VMConfig(
            heap_size=heap,
            teraheap=thc,
            page_cache_size=gb(4),
            governor=GovernorConfig() if governed else None,
        )
    )
    conf = SparkConf(
        cache_policy=policy,
        num_partitions=partitions,
        max_inflight_blocks=max_inflight_blocks,
        target_block_bytes=target_block_bytes,
    )
    return SparkContext(vm, conf)


def build_chain(ctx, input_bytes=gb(1), persist_top=True):
    src = ctx.range_rdd(input_bytes, compute_ops_per_chunk=64, name="src")
    mid = src.map(64, name="mid")
    top = mid.map(64, name="top")
    if persist_top:
        top.persist()
    return top


def trip_circuit(vm):
    for _ in range(4):  # ratio 2.0 ops: BROWNOUT -> circuit OPEN
        vm.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
    assert vm.governor.blocks_h2_caching()


class TestStreamingExecutor:
    def test_inflight_never_exceeds_budget(self):
        ctx = make_ctx(max_inflight_blocks=2)
        top = build_chain(ctx)
        result = StreamingExecutor(ctx).run(top)
        assert result.peak_inflight_bytes <= ctx.conf.inflight_budget_bytes
        assert result.peak_inflight_bytes > 0
        assert result.forced_admissions == 0

    def test_value_parity_with_evaluate(self):
        whole = build_chain(make_ctx()).evaluate()
        ctx = make_ctx()
        top = build_chain(ctx)
        result = StreamingExecutor(ctx).run(top)
        assert result.total_bytes == whole

    def test_value_parity_unpersisted(self):
        whole = build_chain(make_ctx(), persist_top=False).evaluate()
        ctx = make_ctx()
        top = build_chain(ctx, persist_top=False)
        assert StreamingExecutor(ctx).run(top).total_bytes == whole

    def test_all_frames_closed_and_inflight_zero_at_end(self):
        ctx = make_ctx(max_inflight_blocks=2)
        top = build_chain(ctx)
        executor = StreamingExecutor(ctx)
        result = executor.run(top)
        assert result.inflight_bytes == 0
        assert executor._open_frames == []

    def test_persisted_partitions_reach_block_manager(self):
        ctx = make_ctx()
        top = build_chain(ctx)
        StreamingExecutor(ctx).run(top)
        bm = ctx.block_manager
        for index in range(top.num_partitions):
            assert (top.rdd_id, index) in bm.entries

    def test_tight_budget_spills_to_h2_and_unspills(self):
        # 8 blocks per partition under a 2-block budget: the persisted
        # outputs must spill, and assembly must read every one back.
        ctx = make_ctx(max_inflight_blocks=2)
        top = build_chain(ctx)
        result = StreamingExecutor(ctx).run(top)
        assert result.spills_h2 > 0
        assert result.spills_serialized == 0
        assert result.unspills == result.spills
        assert result.backpressure_stalls > 0
        assert ctx.vm.clock.total(Bucket.ALLOC_STALL) > 0

    def test_open_circuit_spills_serialized_on_heap(self):
        ctx = make_ctx(max_inflight_blocks=2, governed=True)
        trip_circuit(ctx.vm)
        top = build_chain(ctx)
        result = StreamingExecutor(ctx).run(top)
        assert result.spills_serialized > 0
        assert result.spills_h2 == 0
        assert result.unspills == result.spills

    def test_deterministic(self):
        def run_once():
            ctx = make_ctx(max_inflight_blocks=2)
            result = StreamingExecutor(ctx).run(build_chain(ctx))
            return (
                ctx.vm.clock.now,
                result.total_bytes,
                result.blocks,
                result.spills,
                result.backpressure_stalls,
                result.peak_inflight_bytes,
            )

        assert run_once() == run_once()

    def test_evaluate_streaming_action(self):
        whole = build_chain(make_ctx()).evaluate()
        ctx = make_ctx()
        assert build_chain(ctx).evaluate_streaming() == whole

    def test_block_rows_and_counter_samples(self):
        ctx = make_ctx(max_inflight_blocks=2)
        result = StreamingExecutor(ctx).run(build_chain(ctx))
        assert len(result.block_rows) == result.blocks
        fates = {row["fate"] for row in result.block_rows}
        assert fates <= {"persisted", "consumed", "spilled-h2", "spilled-ser"}
        times = [t for t, _, _, _ in result.counter_samples]
        assert times == sorted(times)
        rows = streaming_blocks_csv(result).strip().splitlines()
        assert len(rows) == result.blocks + 2  # header + totals
        events = streaming_counter_events(result)
        assert len(events) == len(result.counter_samples)
        assert all(e["ph"] == "C" for e in events)

    def test_streamscale_smoke(self):
        assert main(["streamscale", "--smoke"]) == 0


# ---------------------------------------------------------------------
# Satellite: pinned entries must survive every eviction path
# ---------------------------------------------------------------------
class _RDDStub:
    def __init__(self, rdd_id):
        self.rdd_id = rdd_id
        self.name = f"rdd-{rdd_id}"
        self.cache_label = f"rdd-{rdd_id}"


def cache_partition(vm, bm, rdd, index, chunk=128 * KiB, chunks=4):
    def build(_):
        with vm.roots.frame() as frame:
            blobs = [
                frame.push(
                    vm.allocate(chunk, name=f"{rdd.name}-p{index}-c{i}")
                )
                for i in range(chunks)
            ]
            root = vm.allocate(256, refs=blobs, name=f"{rdd.name}-p{index}")
        return MaterializedPartition(root=root, chunks=blobs)

    return bm.get_or_compute(rdd, index, build)


def accounting_invariant(bm):
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


def plain_vm(heap=gb(4), governed=False):
    return JavaVM(
        VMConfig(
            heap_size=heap,
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(32), region_size=64 * KiB
            ),
            page_cache_size=gb(4),
            governor=GovernorConfig() if governed else None,
        )
    )


class TestPinnedEviction:
    def test_mo_overflow_skips_pinned_entry(self):
        # The regression: MEMORY_ONLY overflow used to drop the oldest
        # entry unconditionally — including the input partition of the
        # task currently executing, corrupting onheap_used and forcing a
        # recompute of a block that was literally on the task's stack.
        vm = plain_vm()
        bm = BlockManager(vm, SparkConf(cache_policy=CachePolicy.MO))
        rdd = _RDDStub(1)
        part = cache_partition(vm, bm, rdd, 0)
        frame = vm.roots.open_frame()
        frame.push(part.root)
        try:
            for i in range(1, 6):  # overflows the 60% memory store
                cache_partition(vm, bm, rdd, i)
                accounting_invariant(bm)
            assert bm.drops > 0
            assert (1, 0) in bm.entries  # the pinned entry survived
        finally:
            vm.roots.close_frame(frame)

    def test_mo_all_pinned_stops_evicting(self):
        # With every entry pinned the store must give up (not cache)
        # rather than loop forever looking for a victim.
        vm = plain_vm()
        bm = BlockManager(vm, SparkConf(cache_policy=CachePolicy.MO))
        rdd = _RDDStub(1)
        frame = vm.roots.open_frame()
        try:
            for i in range(4):
                frame.push(cache_partition(vm, bm, rdd, i).root)
            cache_partition(vm, bm, rdd, 4)
            assert (1, 4) not in bm.entries
            assert bm.drops == 0
            assert len(bm.entries) == 4
            accounting_invariant(bm)
        finally:
            vm.roots.close_frame(frame)

    def test_shed_blocks_skips_pinned(self):
        vm = plain_vm(governed=True)
        bm = BlockManager(
            vm, SparkConf(cache_policy=CachePolicy.TERAHEAP)
        )
        rdd = _RDDStub(1)
        part = cache_partition(vm, bm, rdd, 0)
        for i in range(1, 4):
            cache_partition(vm, bm, rdd, i)
        frame = vm.roots.open_frame()
        frame.push(part.root)
        try:
            bm.shed_blocks(gb(64))
            assert (1, 0) in bm.entries
            assert bm.sheds == 3
            accounting_invariant(bm)
        finally:
            vm.roots.close_frame(frame)


# ---------------------------------------------------------------------
# Satellite: generation-namespaced labels across restart
# ---------------------------------------------------------------------
class TestGenerationLabels:
    def test_generation_one_labels_keep_paper_form(self):
        ctx = make_ctx()
        rdd = ctx.range_rdd(64 * KiB, name="src")
        assert rdd.generation == 1
        assert rdd.cache_label == f"rdd-{rdd.rdd_id}"

    def test_rebuilt_registry_cannot_collide_with_stale_labels(self):
        # The regression: a driver that rebuilds its RDD graph after a
        # restart restarts rdd-id numbering, so the new graph's labels
        # used to collide with (and adopt) the dead incarnation's stale
        # H2 blocks.  Labels are now namespaced by registry generation.
        ctx = make_ctx(partitions=2)
        old = ctx.range_rdd(128 * KiB, name="src").persist()
        old.evaluate()
        ctx.vm.major_gc()  # migrate + commit so an image exists
        old_label = old.block_label(0)
        ctx.restart()
        assert ctx.registry_generation == 2
        # A rebuilt driver graph: id numbering starts over.
        ctx._rdd_counter = 0
        rebuilt = ctx.range_rdd(128 * KiB, name="src").persist()
        assert rebuilt.rdd_id == old.rdd_id
        assert rebuilt.generation == 2
        assert rebuilt.cache_label == f"rdd-{rebuilt.rdd_id}~g2"
        assert rebuilt.block_label(0) != old_label

    def test_surviving_rdds_keep_their_labels_across_restart(self):
        # RDD objects that survive in the driver registry were adopted
        # under their original labels; only *newly registered* RDDs move
        # to the new generation.
        ctx = make_ctx(partitions=2)
        old = ctx.range_rdd(128 * KiB, name="src").persist()
        old.evaluate()
        ctx.vm.major_gc()
        label_before = old.cache_label
        ctx.restart()
        assert old.cache_label == label_before
        assert old.generation == 1


# ---------------------------------------------------------------------
# Satellite: shuffle allocation bursts respect VM backpressure
# ---------------------------------------------------------------------
class TestShuffleBackpressure:
    def _fill(self, vm, fraction=0.9):
        hoard = []
        size = 32 * KiB
        while (vm.heap.used() + size) / vm.heap.capacity < fraction:
            hoard.append(vm.roots.add(vm.allocate(size, name="pin")))
        return hoard

    def test_shuffle_stalls_under_emergency(self):
        # The regression: shuffle buffers allocated straight past the
        # governor's emergency backpressure — the one allocation burst
        # at exactly the wrong moment paid no stall and shed nothing.
        vm = plain_vm(heap=gb(2), governed=True)
        trip_circuit(vm)
        self._fill(vm)
        sm = ShuffleManager(vm, SparkConf())
        before = vm.alloc_stalls
        sm.shuffle(64 * KiB)
        assert sm.backpressure_stalls == 1
        assert vm.alloc_stalls > before
        assert vm.clock.total(Bucket.ALLOC_STALL) > 0

    def test_shuffle_no_stall_when_healthy(self):
        vm = plain_vm(heap=gb(2), governed=True)
        sm = ShuffleManager(vm, SparkConf())
        sm.shuffle(64 * KiB)
        assert sm.backpressure_stalls == 0
        assert vm.alloc_stalls == 0
