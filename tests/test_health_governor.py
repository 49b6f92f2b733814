"""Device-health watchdog, H2 governor circuit breaker, backpressure."""

import pytest

from repro.clock import Bucket, Clock
from repro.config import GovernorConfig, TeraHeapConfig, VMConfig
from repro.devices.health import DeviceHealthMonitor, DeviceState
from repro.errors import DeviceIOError, OutOfMemoryError
from repro.faults.events import ResilienceLog, RetryEvent
from repro.faults.plan import FaultConfig
from repro.faults.policy import BACKOFF_BASE, BACKOFF_FACTOR, RetryPolicy
from repro.frameworks.spark.block_manager import BlockManager
from repro.frameworks.spark.conf import CachePolicy, SparkConf
from repro.frameworks.spark.rdd import MaterializedPartition
from repro.runtime import JavaVM
from repro.teraheap.governor import CircuitState, H2Governor
from repro.teraheap.thresholds import ThresholdPolicy
from repro.units import KiB, gb


def make_monitor():
    return DeviceHealthMonitor(Clock())


def feed(monitor, n, ratio, device="nvme", nbytes=4096):
    state = None
    for _ in range(n):
        state = monitor.observe(
            device, "write", nbytes, actual_s=ratio * 1e-4, nominal_s=1e-4
        )
    return state


class TestDeviceHealthMonitor:
    def test_clean_ops_stay_healthy(self):
        m = make_monitor()
        assert feed(m, 20, 1.0) is DeviceState.HEALTHY
        assert m.transitions == []
        assert m.slo_violations() == 0

    def test_ratio_ewma_escalates_to_degraded(self):
        # One 2x op lifts the EWMA to 1.3 >= degraded_ratio 1.25.
        m = make_monitor()
        assert feed(m, 1, 2.0) is DeviceState.DEGRADED
        assert m.ewma_ratio("nvme") == pytest.approx(1.3)

    def test_violation_streak_forces_brownout(self):
        # Ratio 1.8 violates the 1.75 SLO but its EWMA stays below the
        # 1.9 brownout ratio for the first ops: the 4-violation streak
        # is what must escalate.
        m = make_monitor()
        assert feed(m, 4, 1.8) is DeviceState.BROWNOUT
        assert m.ewma_ratio("nvme") < 1.9
        assert m.slo_violations("nvme") == 4

    def test_io_error_counts_as_violation(self):
        m = make_monitor()
        for _ in range(4):
            state = m.observe_error("nvme", "read")
        assert state is DeviceState.BROWNOUT
        assert m.errors == 4

    def test_recovery_is_hysteretic_one_step_at_a_time(self):
        m = make_monitor()
        feed(m, 4, 1.8)  # -> BROWNOUT
        assert feed(m, 8, 1.0) is DeviceState.DEGRADED
        assert feed(m, 8, 1.0) is DeviceState.HEALTHY
        # Never a direct BROWNOUT -> HEALTHY jump.
        hops = [(t.old, t.new) for t in m.transitions]
        assert (DeviceState.BROWNOUT, DeviceState.HEALTHY) not in hops

    def test_escalation_is_immediate_despite_clean_history(self):
        m = make_monitor()
        feed(m, 50, 1.0)
        assert feed(m, 4, 5.0) is DeviceState.BROWNOUT

    def test_worst_state_across_devices(self):
        m = make_monitor()
        feed(m, 4, 1.0, device="a")
        feed(m, 1, 2.0, device="b")
        assert m.state_of("a") is DeviceState.HEALTHY
        assert m.state_of("b") is DeviceState.DEGRADED
        assert m.state is DeviceState.DEGRADED

    def test_digest_is_deterministic(self):
        runs = []
        for _ in range(2):
            m = make_monitor()
            feed(m, 4, 1.8)
            feed(m, 16, 1.0)
            runs.append(m.digest())
        assert runs[0] == runs[1]
        assert "healthy->brownout" in runs[0] or "->brownout" in runs[0]


def make_governor(**kw):
    clock = Clock()
    monitor = DeviceHealthMonitor(clock)
    cfg = GovernorConfig(**kw)
    return H2Governor(cfg, monitor, clock), monitor, clock


def brownout(monitor):
    for _ in range(4):
        monitor.observe("nvme", "write", 4096, 2e-3, 1e-4)


def recover(monitor):
    for _ in range(16):
        monitor.observe("nvme", "write", 4096, 1e-4, 1e-4)


class TestH2Governor:
    def test_brownout_trips_open(self):
        gov, monitor, _ = make_governor()
        assert gov.state is CircuitState.CLOSED
        brownout(monitor)
        assert gov.state is CircuitState.OPEN
        assert gov.trips == 1
        assert gov.blocks_h2_caching()

    def test_open_halts_unhinted_and_caps_hinted(self):
        gov, monitor, _ = make_governor()
        brownout(monitor)
        allow, scale, hinted = gov.transfer_caps()
        assert not allow
        assert scale == 0.0
        assert hinted == 0

    def test_degraded_scales_budget(self):
        gov, monitor, _ = make_governor()
        monitor.observe("nvme", "write", 4096, 2e-4, 1e-4)  # EWMA 1.3
        assert gov.state is CircuitState.DEGRADED
        allow, scale, hinted = gov.transfer_caps()
        assert allow
        assert scale == 0.5
        assert hinted is None

    def test_probe_after_backoff_closes_via_degraded(self):
        gov, monitor, clock = make_governor(probe_backoff=1e-3)
        brownout(monitor)
        # Before the backoff expires: no probe budget.
        _, _, hinted = gov.transfer_caps()
        assert hinted == 0
        recover(monitor)  # device healthy again, circuit still OPEN
        assert gov.state is CircuitState.OPEN
        clock.charge(2e-3)
        _, _, hinted = gov.transfer_caps()
        assert hinted == 64 * KiB
        assert gov.probes == 1
        gov.note_transfer_result(64 * KiB, denied=0)
        assert gov.state is CircuitState.DEGRADED
        assert gov.probe_successes == 1
        # close_streak clean cycles re-close fully.
        gov.note_transfer_result(128 * KiB, denied=0)
        assert gov.state is CircuitState.CLOSED

    def test_probe_failure_backs_off_exponentially(self):
        gov, monitor, clock = make_governor(probe_backoff=1e-3)
        brownout(monitor)
        clock.charge(2e-3)
        gov.transfer_caps()
        gov.note_transfer_result(0, denied=3)
        assert gov.state is CircuitState.OPEN
        assert gov.probe_failures == 1
        assert gov._backoff == pytest.approx(2e-3)

    def test_denial_while_degraded_trips(self):
        gov, monitor, _ = make_governor()
        monitor.observe("nvme", "write", 4096, 2e-4, 1e-4)
        assert gov.state is CircuitState.DEGRADED
        gov.note_transfer_result(0, denied=1)
        assert gov.state is CircuitState.OPEN

    def test_emergency_gate_needs_open_and_watermark(self):
        gov, monitor, _ = make_governor()
        assert not gov.emergency_active(0.99)
        brownout(monitor)
        assert not gov.emergency_active(0.5)
        assert gov.emergency_active(0.9)

    def test_timeline_digest_deterministic(self):
        digests = []
        for _ in range(2):
            gov, monitor, clock = make_governor(probe_backoff=1e-3)
            brownout(monitor)
            recover(monitor)
            clock.charge(2e-3)
            gov.transfer_caps()
            gov.note_transfer_result(1024, denied=0)
            digests.append(gov.timeline_digest())
        assert digests[0] == digests[1]


class _CapsStub:
    """A governor stand-in returning fixed transfer caps."""

    def __init__(self, caps):
        self.caps = caps

    def transfer_caps(self):
        return self.caps


class TestThresholdPolicyGovernor:
    def test_open_circuit_halts_pressure_transfer(self):
        policy = ThresholdPolicy(
            heap_capacity=1000, governor=_CapsStub((False, 0.0, 128))
        )
        decision = policy.decide(900)  # above the high threshold
        assert not decision.move_unhinted
        assert decision.unhinted_budget == 0
        assert decision.hinted_budget == 128
        assert policy.governor_halts == 1
        assert "circuit open" in decision.reason

    def test_degraded_circuit_scales_budget(self):
        policy = ThresholdPolicy(
            heap_capacity=1000, governor=_CapsStub((True, 0.5, None))
        )
        decision = policy.decide(900)
        assert decision.move_unhinted
        # raw budget: live 900 - low 500 = 400, scaled by 0.5
        assert decision.unhinted_budget == 200

    def test_closed_circuit_leaves_decision_alone(self):
        governed = ThresholdPolicy(
            heap_capacity=1000, governor=_CapsStub((True, 1.0, None))
        )
        plain = ThresholdPolicy(heap_capacity=1000)
        assert governed.decide(900) == plain.decide(900)


class TestRetryBackoff:
    def _run(self, config, failures_then_ok=2):
        clock = Clock()
        log = ResilienceLog()
        policy = RetryPolicy(config, clock, log)
        state = {"left": failures_then_ok}

        def op():
            if state["left"] > 0:
                state["left"] -= 1
                raise DeviceIOError("flaky", device="nvme", transient=True)
            return "ok"

        result = policy.call("write", op)
        return result, clock.now, log

    def test_backoff_doubles_from_the_base(self):
        plain = FaultConfig(seed=7)
        _, t_plain, _ = self._run(plain)
        assert t_plain == pytest.approx(
            BACKOFF_BASE * (1 + BACKOFF_FACTOR)
        )

    def test_attempts_exhaustion_recorded_with_reason(self):
        cfg = FaultConfig(seed=7, max_attempts=3)
        clock = Clock()
        log = ResilienceLog()
        policy = RetryPolicy(cfg, clock, log)

        def always_fail():
            raise DeviceIOError("down", device="nvme", transient=True)

        with pytest.raises(DeviceIOError):
            policy.call("write", always_fail)
        assert log.of(RetryEvent)[-1].reason == "attempts"
        assert log.of(RetryEvent)[-1].attempts == 3
        # Two backoffs between three attempts.
        assert clock.now == pytest.approx(
            BACKOFF_BASE * (1 + BACKOFF_FACTOR)
        )


def governed_vm(heap=gb(2)):
    return JavaVM(
        VMConfig(
            heap_size=heap,
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(64), region_size=32 * KiB
            ),
            page_cache_size=gb(2),
            governor=GovernorConfig(),
        )
    )


class _RDDStub:
    def __init__(self, rdd_id):
        self.rdd_id = rdd_id
        self.name = f"rdd-{rdd_id}"
        self.cache_label = f"rdd-{rdd_id}"


def cache_partition(vm, bm, rdd, index, chunk=8 * KiB, chunks=3):
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
    """Every cache entry charged to exactly one bucket, sums match."""
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


class TestBlockManagerAccounting:
    def make(self, heap=gb(4)):
        vm = governed_vm(heap=heap)
        bm = BlockManager(
            vm,
            SparkConf(
                cache_policy=CachePolicy.TERAHEAP, storage_fraction=0.5
            ),
        )
        return vm, bm

    def test_h2_migration_moves_charge_between_buckets(self):
        vm, bm = self.make()
        rdd = _RDDStub(1)
        for i in range(3):
            cache_partition(vm, bm, rdd, i)
        accounting_invariant(bm)
        before = bm.onheap_used
        assert before > 0
        vm.major_gc()  # tagged cache groups migrate to H2
        bm.reconcile_residency()
        accounting_invariant(bm)
        assert bm.h2_bytes > 0
        assert bm.onheap_used < before
        # The total cached footprint is conserved by the migration.
        assert bm.onheap_used + bm.h2_bytes == before

    def test_shed_blocks_only_frees_h1_and_stays_consistent(self):
        vm, bm = self.make()
        rdd = _RDDStub(1)
        for i in range(2):
            cache_partition(vm, bm, rdd, i)
        vm.major_gc()
        for i in range(2, 5):
            cache_partition(vm, bm, rdd, i)
        h2_before = None
        bm.reconcile_residency()
        h2_before = bm.h2_bytes
        freed = bm.shed_blocks(1)
        accounting_invariant(bm)
        assert freed > 0
        assert bm.sheds >= 1
        assert bm.shed_bytes == freed
        assert bm.h2_bytes == h2_before  # H2-resident entries untouched

    def test_shed_then_recompute_counts_penalty(self):
        vm, bm = self.make()
        rdd = _RDDStub(1)
        cache_partition(vm, bm, rdd, 0)
        bm.shed_blocks(10 * KiB)
        assert (1, 0) not in bm.entries
        cache_partition(vm, bm, rdd, 0)
        assert bm.recomputes == 1
        accounting_invariant(bm)

    def test_evict_rdd_uncharges_all_buckets(self):
        vm, bm = self.make()
        rdd = _RDDStub(1)
        for i in range(3):
            cache_partition(vm, bm, rdd, i)
        vm.major_gc()
        bm.evict_rdd(rdd)
        assert bm.entries == {}
        assert bm.onheap_used == 0
        assert bm.h2_bytes == 0
        accounting_invariant(bm)

    def test_overflow_drop_keeps_invariant(self):
        # MEMORY_ONLY overflow forces FIFO drops on store.
        vm = governed_vm(heap=gb(4))
        bm = BlockManager(
            vm, SparkConf(cache_policy=CachePolicy.MO)
        )
        rdd = _RDDStub(1)
        for i in range(6):
            cache_partition(vm, bm, rdd, i, chunk=128 * KiB, chunks=4)
            accounting_invariant(bm)
        assert bm.drops > 0
        # A dropped partition's next access is the recompute penalty.
        cache_partition(vm, bm, rdd, 0, chunk=128 * KiB, chunks=4)
        assert bm.recomputes >= 1

    def test_open_circuit_falls_back_to_serialized_on_heap(self):
        vm, bm = self.make()
        for _ in range(4):  # ratio 2.0 ops: BROWNOUT -> circuit OPEN
            vm.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
        assert vm.governor.blocks_h2_caching()
        rdd = _RDDStub(1)
        cache_partition(vm, bm, rdd, 0)
        assert bm.governor_fallbacks == 1
        entry = bm.entries[(1, 0)]
        assert entry.kind == "blob"
        assert entry.heap_blob is not None
        assert entry.charged == "h1"
        accounting_invariant(bm)


class TestEmergencyBackpressure:
    def _fill(self, vm, fraction=0.9):
        """Root objects until H1 occupancy crosses ``fraction``."""
        hoard = []
        size = 32 * KiB
        while (vm.heap.used() + size) / vm.heap.capacity < fraction:
            hoard.append(vm.roots.add(vm.allocate(size, name="pin")))
        return hoard

    def test_backpressure_sheds_and_survives(self):
        vm = governed_vm(heap=gb(2))
        for _ in range(4):
            vm.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
        assert vm.governor.state is CircuitState.OPEN
        hoard = self._fill(vm)

        def shed(target):
            freed = 0
            while hoard and freed < target:
                obj = hoard.pop()
                vm.roots.remove(obj)
                freed += obj.size
            return freed

        vm.register_pressure_handler(shed)
        # Allocate pinned objects until normal collection cannot make
        # room any more; the shed handler must keep the VM alive.
        for _ in range(8):
            hoard.append(vm.roots.add(vm.allocate(32 * KiB, name="pin")))
        assert vm.alloc_stalls >= 1
        assert vm.emergency_gcs >= 1
        assert vm.clock.total(Bucket.ALLOC_STALL) > 0

    def test_exhaustion_raises_oom_with_heap_report(self):
        vm = governed_vm(heap=gb(2))
        for _ in range(4):
            vm.health.observe("nvme", "write", 4096, 2e-4, 1e-4)
        self._fill(vm)
        with pytest.raises(OutOfMemoryError) as exc:
            for _ in range(64):
                vm.roots.add(vm.allocate(32 * KiB, name="pin"))
        report = exc.value.heap_report
        assert "simulated heap report" in report
        assert "governor:" in report
        assert "backpressure:" in report

    def test_no_backpressure_when_circuit_closed(self):
        vm = governed_vm(heap=gb(2))
        assert vm.governor.state is CircuitState.CLOSED
        self._fill(vm)
        with pytest.raises(OutOfMemoryError):
            for _ in range(64):
                vm.roots.add(vm.allocate(32 * KiB, name="pin"))
        assert vm.alloc_stalls == 0
