"""Executor crash-restart: lineage, task safepoints, adoption, retries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import GovernorConfig
from repro.errors import RetryExhausted, SimulatedCrash
from repro.faults.events import CrashEvent
from repro.faults.plan import FaultConfig
from repro.faults.session import RunSession
from repro.frameworks.spark import (
    CachePolicy,
    JobRetryPolicy,
    SparkConf,
    SparkContext,
    run_job,
)
from repro.heap.object_model import SpaceId
from repro.units import KiB


def make_ctx(fault=None, partitions=4, session=None):
    vm = JavaVM(
        VMConfig(
            heap_size=gb(8),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(64),
                region_size=64 * KiB,
                promotion_buffer_size=32 * KiB,
                writeback_policy="commit",
            ),
            page_cache_size=gb(8),
            faults=fault,
            governor=GovernorConfig(),
            audit="full",
        ),
        session=session,
    )
    conf = SparkConf(
        cache_policy=CachePolicy.TERAHEAP, num_partitions=partitions
    )
    return SparkContext(vm, conf)


def build_chain(ctx, persist_mid=True, persist_top=False):
    src = ctx.range_rdd(gb(1), compute_ops_per_chunk=100, name="src")
    mid = src.map(ops_per_chunk=1000, name="mid")
    top = mid.map(ops_per_chunk=100, name="top")
    if persist_mid:
        mid.persist()
    if persist_top:
        top.persist()
    return src, mid, top


def crash_free_value(persist_mid=True, persist_top=False, partitions=4):
    ctx = make_ctx(partitions=partitions)
    _, _, top = build_chain(ctx, persist_mid, persist_top)
    total = top.evaluate()
    ctx.vm.major_gc()
    return total + top.evaluate()


class TestLineage:
    def test_source_and_map_records(self):
        ctx = make_ctx()
        src, mid, top = build_chain(ctx)
        assert src.lineage.op == "source"
        assert src.lineage.parent_id is None
        assert mid.lineage.op == "map"
        assert mid.lineage.parent_id == src.rdd_id
        assert top.lineage.parent_id == mid.rdd_id

    def test_parent_resolved_through_registry(self):
        ctx = make_ctx()
        src, mid, _ = build_chain(ctx)
        assert ctx.rdd(mid.lineage.parent_id) is src

    def test_chain_reaches_source(self):
        ctx = make_ctx()
        src, _, top = build_chain(ctx)
        chain = [top]
        while chain[-1].lineage.parent_id is not None:
            chain.append(ctx.rdd(chain[-1].lineage.parent_id))
        assert [rdd.name for rdd in chain] == ["top", "mid", "src"]
        assert chain[-1] is src

    def test_registry_survives_restart(self):
        """The RDD graph is driver state: identical across incarnations."""
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=2)
        ctx = make_ctx(fault)
        src, mid, top = build_chain(ctx)
        with pytest.raises(SimulatedCrash):
            top.evaluate()
        ctx.restart()
        assert ctx.rdd(top.lineage.parent_id) is mid
        assert ctx.rdd(mid.lineage.parent_id) is src


class TestSessionSummary:
    @pytest.mark.parametrize("own_config", [False, True])
    def test_restart_counts_each_event_once(self, own_config):
        """A session-armed executor's events move to its successor, so
        the run summary counts every event once after a restart, also
        when the successor gets its own fault config."""
        fault = FaultConfig(
            seed=3, read_error_rate=0.05, write_error_rate=0.05
        )
        session = RunSession(faults=fault)
        ctx = make_ctx(session=session)
        _, _, top = build_chain(ctx)
        top.evaluate()
        ctx.vm.major_gc()
        top.evaluate()
        old_log = ctx.vm.resilience.log
        seen_before = old_log.faults_seen
        assert seen_before > 0
        ctx.restart(fault=fault if own_config else None)
        top.evaluate()
        ctx.vm.major_gc()
        top.evaluate()
        log = ctx.vm.resilience.log
        assert log.faults_seen > seen_before
        summary = session.summary()
        for key, value in log.summary().items():
            assert summary[key] == value, key
        assert old_log.faults_seen == 0


class TestTaskSafepoint:
    def test_crash_at_nth_task(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=3)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        with pytest.raises(SimulatedCrash) as exc:
            top.evaluate()
        assert exc.value.safepoint == "task:top"
        # Tasks 1 and 2 completed; the kill preempted task 3 (index 2).
        assert ctx.current_task == ("top", 2)

    def test_other_stages_unaffected(self):
        fault = FaultConfig(seed=3, crash_stage="nonexistent", crash_task=1)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        top.evaluate()  # must not raise

    def test_crash_recorded_in_resilience_log(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=1)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        with pytest.raises(SimulatedCrash):
            top.evaluate()
        log = ctx.vm.resilience.log
        assert log.crash_count == 1
        assert log.of(CrashEvent)[0].safepoint == "task:top"

    def test_deterministic_across_runs(self):
        def run_once():
            fault = FaultConfig(seed=3, crash_stage="top", crash_task=3)
            ctx = make_ctx(fault)
            _, _, top = build_chain(ctx)
            try:
                top.evaluate()
            except SimulatedCrash as crash:
                return (crash.safepoint, ctx.current_task, ctx.vm.clock.now)
            return None

        assert run_once() == run_once()
        assert run_once() is not None


class TestRestart:
    def test_adopts_committed_blocks(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=6)
        ctx = make_ctx(fault)
        _, mid, top = build_chain(ctx)
        result = run_job(ctx, lambda: _two_pass(ctx, top))
        assert result.restarts == 1
        assert result.value == crash_free_value()
        assert result.blocks_adopted == mid.num_partitions
        assert result.blocks_lost == 0
        bm = ctx.block_manager
        assert bm.adoptions == mid.num_partitions
        assert bm.recomputes == 0

    def test_adopted_blocks_live_in_h2(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=6)
        ctx = make_ctx(fault)
        _, mid, top = build_chain(ctx)
        run_job(ctx, lambda: _two_pass(ctx, top))
        entry = ctx.block_manager.entries[(mid.rdd_id, 0)]
        assert entry.charged == "h2"
        assert entry.partition.root.space is SpaceId.H2
        assert entry.label == mid.block_label(0)

    def test_successor_state_is_fresh(self):
        """Nothing of the dead incarnation leaks into the successor."""
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=6)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        old = ctx.vm
        # Dirty the old VM's per-incarnation state: EWMAs, circuit, a
        # pressure handler, an alloc stall.
        for _ in range(4):
            old.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
        assert old.governor.blocks_h2_caching()
        old.alloc_stalls = 7
        marker = []
        old.register_pressure_handler(lambda n: marker.append(n) or 0)
        with pytest.raises(SimulatedCrash):
            _two_pass(ctx, top)
        ctx.restart()
        successor = ctx.vm
        assert successor is not old
        assert old.retired
        # Recovery I/O feeds the successor's monitor with *clean*
        # observations; the dead VM's brownout EWMAs must not carry over.
        assert successor.health.ewma_ratio("nvme") == 1.0
        assert successor.health.transitions == []
        assert successor.health.errors == 0
        assert not successor.governor.blocks_h2_caching()
        assert successor.alloc_stalls == 0
        # The successor's only handler is its own block manager's.
        assert successor.pressure_handlers == [
            ctx.block_manager.shed_blocks
        ]
        # The old VM is inert: late registrations are dropped, and its
        # health monitor no longer drives any listener.
        old.register_pressure_handler(lambda n: 0)
        assert old.pressure_handlers == []
        assert old.health._listeners == []

    def test_incarnation_and_log_continuity(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=6)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        assert ctx.incarnation == 1
        with pytest.raises(SimulatedCrash):
            _two_pass(ctx, top)
        report = ctx.restart()
        assert ctx.incarnation == 2
        assert report.incarnation == 2
        log = ctx.vm.resilience.log
        # The successor's log absorbed the crash from incarnation 1.
        assert log.crash_count == 1
        assert log.restart_count == 1

    def test_uncommitted_blocks_lost_then_recomputed(self):
        # Kill during the very first coalesced H2 flush: nothing durable.
        fault = FaultConfig(seed=3, crash_point="h2_flush", crash_after=1)
        ctx = make_ctx(fault)
        _, mid, top = build_chain(ctx)
        result = run_job(ctx, lambda: _two_pass(ctx, top))
        assert result.value == crash_free_value()
        assert result.blocks_adopted == 0
        assert result.blocks_lost == mid.num_partitions
        bm = ctx.block_manager
        assert bm.recomputes == mid.num_partitions
        log = ctx.vm.resilience.log
        assert log.adoption_count("recomputed") == mid.num_partitions


def _two_pass(ctx, top):
    total = top.evaluate()
    ctx.vm.major_gc()
    return total + top.evaluate()


class TestQuarantinedBlocks:
    def _restarted_ctx(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=6)
        ctx = make_ctx(fault)
        _, mid, top = build_chain(ctx)
        with pytest.raises(SimulatedCrash):
            _two_pass(ctx, top)
        return ctx, mid, top

    def test_quarantined_label_drops_block(self):
        ctx, mid, top = self._restarted_ctx()
        label = mid.block_label(0)
        report = ctx.restart()
        # Re-run adoption for partition 0 as if recovery had quarantined
        # its regions (torn data): the block must be dropped, not served.
        bm = ctx.block_manager
        bm._remove_entry((mid.rdd_id, 0))
        outcome = bm.adopt_recovered(
            mid, mid.partitions[0], {label: "torn-data"}
        )
        assert outcome == "quarantined"
        assert (mid.rdd_id, 0) not in bm.entries
        assert label not in ctx.vm.h2_recovery_anchors
        assert report.blocks[label] == "adopted"  # original pass adopted it
        # The next access recomputes from lineage and counts it.
        before = bm.recomputes
        top.evaluate()
        assert bm.recomputes == before + 1

    def test_shape_mismatch_is_lost(self):
        ctx, mid, _ = self._restarted_ctx()
        ctx.restart()
        bm = ctx.block_manager
        bm._remove_entry((mid.rdd_id, 0))
        # An anchor whose object multiset disagrees with the partition
        # spec must not be adopted as that partition.
        anchor = ctx.vm.h2_recovery_anchors.get(mid.block_label(1))
        assert anchor is not None
        ctx.vm.h2_recovery_anchors[mid.block_label(0)] = anchor
        spec = mid.partitions[0]
        wrong = type(spec)(
            index=0,
            num_chunks=spec.num_chunks + 3,
            chunk_size=spec.chunk_size,
        )
        outcome = bm.adopt_recovered(mid, wrong, {})
        assert outcome == "lost"
        assert bm.lost_blocks == 1


class TestGovernorOpenFallback:
    """Satellite: quarantined block + OPEN circuit on the successor."""

    def _ctx_with_open_circuit_and_quarantine(self):
        fault = FaultConfig(seed=3, crash_stage="top", crash_task=6)
        ctx = make_ctx(fault)
        _, mid, top = build_chain(ctx)
        with pytest.raises(SimulatedCrash):
            _two_pass(ctx, top)
        ctx.restart()
        bm = ctx.block_manager
        # Quarantine partition 0's block, then brown out the device so
        # the circuit opens: the recompute may not re-aim at H2.
        bm._remove_entry((mid.rdd_id, 0))
        bm.adopt_recovered(
            mid, mid.partitions[0], {mid.block_label(0): "torn-data"}
        )
        for _ in range(4):
            ctx.vm.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
        assert ctx.vm.governor.blocks_h2_caching()
        return ctx, mid

    def test_fallback_chain_no_double_charge(self):
        from repro.devices.nvme import NVMeSSD

        ctx, mid = self._ctx_with_open_circuit_and_quarantine()
        bm = ctx.block_manager
        vm = ctx.vm
        # Give the conf a real off-heap device so a buggy fallback chain
        # *could* charge device reads — then prove it doesn't.
        dev = NVMeSSD(vm.clock)
        ctx.conf.offheap_device = dev
        # First access: lineage recompute + serialized-on-heap fallback.
        part = mid.compute_partition(0)
        assert part is not None
        assert bm.recomputes == 1
        assert bm.governor_fallbacks == 1
        entry = bm.entries[(mid.rdd_id, 0)]
        assert entry.kind == "blob"
        assert entry.heap_blob is not None
        # Further accesses deserialize the on-heap holder: they must not
        # touch the device, must not re-count the recompute, and must
        # charge the serdes cost exactly once per access (second and
        # third access deltas identical — nothing accumulates twice).
        reads_before = dev.traffic.read_ops
        before_2nd = vm.clock.total(Bucket.SD_IO)
        deser_before = bm.deserializations
        mid.compute_partition(0)
        second_delta = vm.clock.total(Bucket.SD_IO) - before_2nd
        before_3rd = vm.clock.total(Bucket.SD_IO)
        mid.compute_partition(0)
        third_delta = vm.clock.total(Bucket.SD_IO) - before_3rd
        assert bm.deserializations == deser_before + 2
        assert dev.traffic.read_ops == reads_before
        assert second_delta == pytest.approx(third_delta)
        assert bm.recomputes == 1

    def test_open_circuit_does_not_recount_recompute(self):
        ctx, mid = self._ctx_with_open_circuit_and_quarantine()
        bm = ctx.block_manager
        mid.compute_partition(0)
        mid.compute_partition(0)
        mid.compute_partition(0)
        assert bm.recomputes == 1


class TestRetryPolicy:
    def test_poisoned_partition_fails_fast(self):
        # Every incarnation dies with the same task in flight.
        fault = FaultConfig(seed=3, crash_rate=1.0)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        policy = JobRetryPolicy(max_restarts=50, max_partition_attempts=3)
        with pytest.raises(RetryExhausted) as exc:
            run_job(ctx, top.evaluate, policy)
        assert "poisoned" in str(exc.value)
        assert exc.value.task is not None
        assert exc.value.restarts < 50

    def test_restart_budget_exhausts(self):
        fault = FaultConfig(seed=3, crash_rate=1.0)
        ctx = make_ctx(fault)
        _, _, top = build_chain(ctx)
        policy = JobRetryPolicy(max_restarts=2, max_partition_attempts=100)
        with pytest.raises(RetryExhausted) as exc:
            run_job(ctx, top.evaluate, policy)
        assert exc.value.restarts == 2
        assert "gave up after 2" in str(exc.value)

    def test_zero_crash_zero_restarts(self):
        ctx = make_ctx(FaultConfig(seed=3))
        _, _, top = build_chain(ctx)
        result = run_job(ctx, lambda: _two_pass(ctx, top))
        assert result.restarts == 0
        assert result.value == crash_free_value()


class TestCrashScheduleProperty:
    """Any crash schedule terminates: right answer or diagnosed failure."""

    @settings(max_examples=10, deadline=None)
    @given(
        crash=st.one_of(
            st.tuples(
                st.sampled_from(
                    [
                        "task:top",
                        "h2_flush",
                        "epoch_commit",
                        "promotion_flush",
                        "major_compact",
                        "region_metadata_update",
                    ]
                ),
                st.integers(min_value=1, max_value=12),
            ),
            st.floats(min_value=0.001, max_value=0.05),
        ),
        persist_mid=st.booleans(),
        persist_top=st.booleans(),
    )
    def test_always_terminates_correctly(
        self, crash, persist_mid, persist_top
    ):
        if isinstance(crash, tuple):
            point, nth = crash
            if point == "task:top":
                fault = FaultConfig(seed=3, crash_stage="top", crash_task=nth)
            else:
                fault = FaultConfig(seed=3, crash_point=point, crash_after=nth)
        else:
            fault = FaultConfig(seed=3, crash_rate=crash)
        ctx = make_ctx(fault, partitions=2)
        _, _, top = build_chain(ctx, persist_mid, persist_top)
        expected = crash_free_value(persist_mid, persist_top, partitions=2)
        try:
            result = run_job(ctx, lambda: _two_pass(ctx, top))
        except RetryExhausted as exc:
            # Diagnosed failure is acceptable; silent corruption is not.
            assert exc.restarts >= 0
            return
        assert result.value == expected
        # Every persisted block is accounted for on every restart.
        for report in result.reports:
            persisted = (2 if persist_mid else 0) + (2 if persist_top else 0)
            assert len(report.blocks) == persisted
