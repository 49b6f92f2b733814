"""Fault injection, H2 I/O resilience, and post-GC invariant auditing."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import repro
from helpers import make_group
from repro import (
    DeviceFullError,
    DeviceIOError,
    InvariantViolation,
    JavaVM,
    OutOfMemoryError,
    SegmentationFault,
    TeraHeapConfig,
    VMConfig,
    gb,
)
from repro.clock import Clock
from repro.devices.mmap import MappedFile
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.errors import ConfigError
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultKind,
    FaultPlan,
    ResilienceLog,
    ResiliencePolicy,
    RetryEvent,
    RetryPolicy,
)
from repro.faults.plan import LATENCY_SPIKE_MULTIPLIER
from repro.faults.policy import BACKOFF_BASE, BACKOFF_FACTOR
from repro.heap.object_model import HeapObject, SpaceId
from repro.teraheap.h2_heap import H2_BASE, H2Heap
from repro.units import KiB, MiB

DEVICES = [
    pytest.param(NVMeSSD, id="nvme"),
    pytest.param(NVM, id="nvm"),
]


def th_config(faults=None, audit=None, heap=8, cache=gb(4)):
    return VMConfig(
        heap_size=gb(heap),
        teraheap=TeraHeapConfig(
            enabled=True, h2_size=gb(64), region_size=16 * KiB
        ),
        page_cache_size=cache,
        faults=faults,
        audit=audit,
    )


def run_workload(vm, groups=4, count=12, size=2 * KiB):
    """Tag/move several object groups to H2 and touch them afterwards."""
    for g in range(groups):
        label = f"grp-{g}"
        root, children = make_group(vm, count=count, size=size, name=label)
        vm.h2_tag_root(root, label)
        vm.h2_move(label)
        vm.major_gc()
        for child in children[:4]:
            vm.read_object(child)
        vm.minor_gc()
    return vm


# ======================================================================
# Injector faults, per fault kind x device type
# ======================================================================
@pytest.mark.parametrize("device_cls", DEVICES)
def test_injected_read_error(device_cls):
    clock = Clock()
    device = device_cls(clock)
    plan = FaultPlan(FaultConfig(read_error_rate=1.0))
    injector = FaultInjector(device, plan)
    with pytest.raises(DeviceIOError) as excinfo:
        injector.read(4096)
    assert excinfo.value.transient
    assert excinfo.value.device == device.name
    assert excinfo.value.op == "read"
    # The failed request still travelled to the device and back.
    assert clock.now > 0
    assert plan.injected[FaultKind.READ_ERROR] == 1


@pytest.mark.parametrize("device_cls", DEVICES)
def test_injected_write_error(device_cls):
    clock = Clock()
    device = device_cls(clock)
    plan = FaultPlan(FaultConfig(write_error_rate=1.0))
    injector = FaultInjector(device, plan)
    with pytest.raises(DeviceIOError) as excinfo:
        injector.write(4096)
    assert excinfo.value.transient and excinfo.value.op == "write"
    assert device.traffic.bytes_written == 0  # nothing actually landed
    assert plan.injected[FaultKind.WRITE_ERROR] == 1


@pytest.mark.parametrize("device_cls", DEVICES)
def test_injected_latency_spike(device_cls):
    plan = FaultPlan(FaultConfig(latency_spike_rate=1.0))
    clock = Clock()
    injector = FaultInjector(device_cls(clock), plan)
    spiked = injector.read(4096)
    baseline = device_cls(Clock()).read(4096)
    assert spiked == pytest.approx(LATENCY_SPIKE_MULTIPLIER * baseline)
    assert clock.now == pytest.approx(spiked)
    assert plan.injected[FaultKind.LATENCY_SPIKE] == 1


@pytest.mark.parametrize("device_cls", DEVICES)
def test_injected_device_full_on_region_allocation(device_cls, store):
    clock = Clock()
    policy = ResiliencePolicy(FaultConfig(device_full_rate=1.0), clock)
    h2 = H2Heap(
        TeraHeapConfig(enabled=True, h2_size=gb(64), region_size=16 * KiB),
        device_cls(clock),
        clock,
        page_cache_size=gb(4),
        resilience=policy,
        store=store,
    )
    with pytest.raises(DeviceFullError) as excinfo:
        h2.assign_address(HeapObject(1024, store=store), "label", epoch=1)
    assert not excinfo.value.transient
    assert excinfo.value.requested == 16 * KiB
    assert policy.plan.injected[FaultKind.DEVICE_FULL] == 1


@pytest.mark.parametrize("device_cls", DEVICES)
def test_injected_sigbus_on_page_fault(device_cls):
    clock = Clock()
    device = device_cls(clock)
    plan = FaultPlan(FaultConfig(sigbus_rate=1.0))
    mapping = MappedFile(
        device,
        H2_BASE,
        1 * MiB,
        PageCache(device, 1 * MiB),
        fault_plan=plan,
    )
    with pytest.raises(SegmentationFault) as excinfo:
        mapping.load(H2_BASE, 4096)
    assert excinfo.value.sigbus
    assert excinfo.value.address == H2_BASE
    assert mapping.sigbus_count == 1
    # The faulted page stayed cached, so the retry hits and succeeds.
    mapping.load(H2_BASE, 4096)


def test_injector_delegates_to_wrapped_device():
    clock = Clock()
    device = NVMeSSD(clock)
    injector = FaultInjector(device, FaultPlan(FaultConfig()))
    assert injector.name == device.name
    assert injector.capacity == device.capacity
    assert injector.traffic is device.traffic
    other = Clock()
    injector.clock = other
    assert device.clock is other


def test_suspended_queries_consume_no_draws():
    plan = FaultPlan(FaultConfig(read_error_rate=1.0))
    with plan.suspend():
        assert plan.io_outcome(write=False, device="d") is None
        assert not plan.allocation_fault("d")
        assert not plan.page_fault_outcome("d", 0)
    assert plan.op_index == 0
    # Injection resumes, and the schedule is unperturbed.
    assert plan.io_outcome(write=False, device="d") is not None
    assert plan.op_index == 1


# ======================================================================
# Retry policy and graceful degradation
# ======================================================================
def test_retry_recovers_and_charges_backoff():
    clock = Clock()
    cfg = FaultConfig(max_attempts=4)
    retry = RetryPolicy(cfg, clock, ResilienceLog())
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise DeviceIOError("transient", transient=True)
        return "ok"

    assert retry.call("op", flaky) == "ok"
    assert calls["n"] == 3
    assert clock.now == pytest.approx(BACKOFF_BASE * (1 + BACKOFF_FACTOR))
    assert retry.log.ops_retried == 1


def test_retry_does_not_touch_persistent_faults():
    retry = RetryPolicy(FaultConfig(), Clock(), ResilienceLog())
    calls = {"n": 0}

    def broken():
        calls["n"] += 1
        raise DeviceIOError("persistent", transient=False)

    with pytest.raises(DeviceIOError):
        retry.call("op", broken)
    assert calls["n"] == 1
    assert not retry.log.of(RetryEvent)


def test_exhaustion_degrades_then_falls_back():
    clock = Clock()
    policy = ResiliencePolicy(
        FaultConfig(write_error_rate=1.0, max_attempts=2, failure_budget=1),
        clock,
    )
    injector = policy.wrap_device(NVMeSSD(clock))
    # Every attempt faults; the policy must exhaust retries, degrade, and
    # still complete the operation with injection suspended.
    cost = policy.run("h2_flush", lambda: injector.write(4096))
    assert cost > 0
    assert policy.degraded
    assert policy.log.retry_exhaustions == 1
    assert policy.log.degraded_count == 1
    assert policy.degradation_context()


# ======================================================================
# VM-level resilience
# ======================================================================
def test_faulty_run_completes_without_aborting():
    cfg = FaultConfig(
        seed=11,
        read_error_rate=0.3,
        write_error_rate=0.3,
        latency_spike_rate=0.2,
        sigbus_rate=0.1,
    )
    # A tiny page cache forces mutator loads through the device, so the
    # injector sees the full read path, not just promotion flushes.
    vm = run_workload(
        JavaVM(th_config(faults=cfg, cache=64 * KiB)), groups=8
    )
    assert vm.resilience.plan.total_injected > 0
    assert vm.resilience.log.ops_retried > 0
    assert vm.h2.objects_moved > 0  # the workload still made progress


def test_retry_exhaustion_disables_h2_transfers():
    cfg = FaultConfig(
        seed=5, write_error_rate=1.0, max_attempts=2, failure_budget=1
    )
    vm = JavaVM(th_config(faults=cfg))
    root, children = make_group(vm, count=8, size=2 * KiB, name="a")
    vm.h2_tag_root(root, "a")
    vm.h2_move("a")
    vm.major_gc()  # flush faults every attempt -> degrade, fall back
    assert vm.resilience.degraded
    assert vm.resilience.log.degraded_count == 1
    assert root.space is SpaceId.H2  # placed before the flush failed
    moved_before = vm.h2.objects_moved
    # Degraded: the next group must stay in H1 (serialization fallback).
    root2, _ = make_group(vm, count=8, size=2 * KiB, name="b")
    vm.h2_tag_root(root2, "b")
    vm.h2_move("b")
    vm.major_gc()
    assert root2.in_h1
    assert vm.h2.objects_moved == moved_before


def test_device_full_denials_fall_back_to_h1_compaction():
    cfg = FaultConfig(seed=3, device_full_rate=1.0, failure_budget=2)
    vm = JavaVM(th_config(faults=cfg))
    root, children = make_group(vm, count=8, size=2 * KiB, name="a")
    vm.h2_tag_root(root, "a")
    vm.h2_move("a")
    vm.major_gc()  # every region allocation denied
    assert vm.collector.h2_transfers_denied > 0
    assert vm.h2.objects_moved == 0
    assert root.in_h1 and all(c.in_h1 for c in children)
    assert root.space is not SpaceId.FREED
    assert vm.resilience.degraded  # denials exceeded the budget


def test_oom_reports_degradation_context():
    cfg = FaultConfig(write_error_rate=1.0, failure_budget=1)
    vm = JavaVM(th_config(faults=cfg, heap=2))
    vm.resilience.note_failure("h2_flush", DeviceIOError("injected"))
    assert vm.resilience.degraded
    with pytest.raises(OutOfMemoryError) as excinfo:
        while True:
            vm.roots.add(vm.allocate(128 * KiB))
    assert "degraded" in excinfo.value.context
    assert "degraded" in str(excinfo.value)


# ======================================================================
# Determinism
# ======================================================================
def _seeded_run(seed):
    cfg = FaultConfig(
        seed=seed,
        read_error_rate=0.25,
        write_error_rate=0.25,
        latency_spike_rate=0.2,
        sigbus_rate=0.1,
    )
    return run_workload(JavaVM(th_config(faults=cfg)))


def test_same_seed_same_schedule_and_clock():
    vm1 = _seeded_run(23)
    vm2 = _seeded_run(23)
    digest = vm1.resilience.plan.schedule_digest()
    assert digest == vm2.resilience.plan.schedule_digest()
    assert vm1.resilience.plan.total_injected > 0
    assert vm1.elapsed() == vm2.elapsed()


def test_different_seed_different_schedule():
    assert (
        _seeded_run(23).resilience.plan.schedule_digest()
        != _seeded_run(24).resilience.plan.schedule_digest()
    )


# ======================================================================
# Post-GC auditing
# ======================================================================
def test_full_audit_passes_on_healthy_workload():
    vm = run_workload(JavaVM(th_config(audit="full")))
    assert vm.auditor is not None
    assert vm.auditor.audits_run > 0
    assert vm.auditor.violations_found == 0


def test_full_audit_passes_under_fault_injection():
    cfg = FaultConfig(
        seed=7,
        read_error_rate=0.2,
        write_error_rate=0.2,
        sigbus_rate=0.05,
    )
    vm = run_workload(JavaVM(th_config(faults=cfg, audit="full")))
    assert vm.auditor.audits_run > 0
    assert vm.auditor.violations_found == 0


def test_audit_detects_address_corruption():
    vm = JavaVM(th_config(audit="cheap"))
    vm.roots.add(vm.allocate(1024))
    vm.major_gc()  # healthy: audit passed
    vm.store.address[vm.heap.old.oid_array()[0]] += 8
    with pytest.raises(InvariantViolation) as excinfo:
        vm.auditor.audit("major", vm.collector.mark_epoch)
    assert any(v.check == "address-bounds" for v in excinfo.value.violations)
    assert vm.auditor.violations_found > 0


def test_audit_detects_bump_pointer_past_space_end():
    vm = JavaVM(VMConfig(heap_size=768 * KiB, audit="cheap"))
    eden = vm.heap.eden
    # Hand-built overrun: one object that starts at eden's base and runs
    # 512 B past its end.  Membership, bounds against [base, top),
    # overlap and accounting all hold; only the end is crossed.
    obj = HeapObject(eden.capacity + 512, store=vm.store)
    obj.address = eden.base
    obj.space = SpaceId.EDEN
    eden.extend((obj.oid,), obj.end_address())
    with pytest.raises(InvariantViolation) as excinfo:
        vm.auditor.audit("minor", vm.collector.mark_epoch)
    checks = [v.check for v in excinfo.value.violations]
    assert checks == ["space-overrun"]
    assert "eden" in excinfo.value.violations[0].subject


def test_audit_detects_h2_dangling_reference():
    vm = JavaVM(th_config(audit="full"))
    root, _ = make_group(vm, count=4, size=2 * KiB, name="a")
    vm.h2_tag_root(root, "a")
    vm.h2_move("a")
    vm.major_gc()
    assert root.space is SpaceId.H2
    victim = HeapObject(1024, store=vm.store)
    victim.space = SpaceId.FREED
    root.refs.append(victim)
    with pytest.raises(InvariantViolation) as excinfo:
        vm.auditor.audit("major", vm.collector.mark_epoch)
    assert any(
        v.check == "h2-dangling-ref" for v in excinfo.value.violations
    )


def test_audit_detects_missing_dependency_edge():
    vm = JavaVM(th_config(audit="full"))
    roots = []
    for label in ("a", "b"):
        root, _ = make_group(vm, count=4, size=2 * KiB, name=label)
        vm.h2_tag_root(root, label)
        vm.h2_move(label)
        vm.major_gc()
        roots.append(root)
    a, b = roots
    assert a.region_id != b.region_id
    # A cross-region reference smuggled in without record_cross_region_ref
    # (i.e. bypassing the write barrier) breaks dependency closure.
    a.refs.append(b)
    with pytest.raises(InvariantViolation) as excinfo:
        vm.auditor.audit("major", vm.collector.mark_epoch)
    assert any(
        v.check == "h2-dependency-closure"
        for v in excinfo.value.violations
    )


@pytest.mark.parametrize(
    "corrupt",
    ["live-count", "position", "stray-dirty", "over-limit"],
)
def test_audit_detects_page_cache_corruption(corrupt):
    vm = JavaVM(th_config(audit="full"))
    root, _ = make_group(vm, count=4, size=2 * KiB, name="a")
    vm.h2_tag_root(root, "a")
    vm.h2_move("a")
    vm.major_gc()  # healthy: audit passed
    cache = vm.h2.page_cache
    (page, _), *_ = cache.lru()
    if corrupt == "live-count":
        cache._live += 1
    elif corrupt == "position":
        cache._where[page] = cache._tail  # past the last entry
    elif corrupt == "stray-dirty":
        cache.invalidate([page])
        cache._dirty[page] = True
    else:
        cache.max_pages = len(cache) - 1
    with pytest.raises(InvariantViolation) as excinfo:
        vm.auditor.audit("major", vm.collector.mark_epoch)
    assert {v.check for v in excinfo.value.violations} == {"page-cache"}


def test_config_rejects_unknown_audit_level():
    with pytest.raises(ConfigError):
        VMConfig(heap_size=gb(4), audit="bogus")


@pytest.mark.parametrize(
    "rates",
    [
        {"read_error_rate": -1.0},
        {"sigbus_rate": 7},
        {"crash_rate": 1.0 + 1e-9},
        {"latency_spike_rate": float("nan")},
    ],
)
def test_fault_config_rejects_rates_outside_the_unit_interval(rates):
    with pytest.raises(ConfigError):
        FaultConfig(**rates)


def test_fault_config_accepts_the_interval_ends():
    FaultConfig(read_error_rate=0.0, crash_rate=1.0, device_full_rate=1.0)


# ======================================================================
# CLI: a fig06-style faulted + audited run (the acceptance shape)
# ======================================================================
def _resilience_line(capsys, argv, status=0):
    from repro.__main__ import main

    assert main(argv) == status
    out = capsys.readouterr().out
    return next(ln for ln in out.splitlines() if ln.startswith("resilience:"))


def test_cli_faulted_audited_fig06_run(capsys):
    # Pinned from the pre-harness drivers: the same smoke cells, each run
    # twice in harness order under one session built as the CLI builds
    # it.  The faults degrade H2 and OOM TeraHeap's BFS runs (the pressure
    # falls back on H1), so fig06's check fails and the run exits 1.
    line = _resilience_line(
        capsys,
        [
            "fig06",
            "--smoke",
            "--faults",
            "42",
            "--fault-rate",
            "0.05",
            "--audit",
            "cheap",
        ],
        status=1,
    )
    assert line == (
        "resilience: faults_injected=2520 ops_retried=1302 "
        "retry_exhaustions=0 degradations=8 crashes=0 recoveries=0 "
        "audits_run=380 invariant_violations=0"
    )


def test_env_armed_vm_adds_nothing_to_a_later_run(monkeypatch, capsys):
    """A VM audited via REPRO_AUDIT outside any run session is counted
    by no later run: table5 builds no VM, so its summary is all zeros."""
    monkeypatch.setenv("REPRO_AUDIT", "cheap")
    vm = JavaVM(VMConfig(heap_size=gb(8), page_cache_size=gb(4)))
    vm.allocate(1024)
    vm.minor_gc()
    assert vm.auditor.audits_run == 1
    del vm
    monkeypatch.delenv("REPRO_AUDIT")
    line = _resilience_line(capsys, ["table5", "--audit", "cheap"])
    assert line == (
        "resilience: faults_injected=0 ops_retried=0 retry_exhaustions=0 "
        "degradations=0 crashes=0 recoveries=0 audits_run=0 "
        "invariant_violations=0"
    )


def test_dropped_vm_frees_its_store(monkeypatch):
    monkeypatch.setenv("REPRO_AUDIT", "cheap")
    vm = JavaVM(VMConfig(heap_size=gb(8), page_cache_size=gb(4)))
    vm.allocate(1024)
    vm.minor_gc()
    store = weakref.ref(vm.store)
    del vm
    gc.collect()
    assert store() is None


@pytest.mark.parametrize(
    "experiment, expected",
    [
        # co-located tenants, each armed by the run's defaults
        (
            "serverscale",
            "resilience: faults_injected=32 ops_retried=28 "
            "retry_exhaustions=0 degradations=0 crashes=0 recoveries=0 "
            "audits_run=270 invariant_violations=0",
        ),
        # crash + restart: the recovered incarnations count too
        (
            "chaoskill",
            "resilience: faults_injected=3 ops_retried=0 "
            "retry_exhaustions=0 degradations=0 crashes=0 recoveries=12 "
            "audits_run=0 invariant_violations=0",
        ),
    ],
)
def test_cli_gated_resilience_summary(experiment, expected):
    # A fresh interpreter: the line is what one CLI invocation prints.
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "repro", experiment, "--smoke",
         "--faults", "3", "--audit", "cheap"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines()[-1] == expected
