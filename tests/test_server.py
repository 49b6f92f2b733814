"""Server layer: shared devices, arbiters, and multi-tenant scoping."""

import gc
import weakref

import pytest

from repro.clock import Clock
from repro.config import GovernorConfig, TeraHeapConfig, VMConfig
from repro.devices.health import DeviceHealthMonitor, DeviceState
from repro.devices.nvme import NVMeSSD
from repro.devices.page_cache import PageCache
from repro.errors import DeviceFullError
from repro.faults import RunSession
from repro.faults.plan import FaultConfig
from repro.faults.policy import ResiliencePolicy
from repro.runtime import JavaVM
from repro.server import (
    BandwidthArbiter,
    ServerBox,
    ServerSpec,
    TenantDevice,
)
from repro.server.box import H2_CAPACITY
from repro.units import KiB, gb


# ---------------------------------------------------------------------
# PageCache.resize (the arbiter's DR2 lever)
# ---------------------------------------------------------------------
def test_page_cache_resize_shrinks_evicts_and_keeps_durable_state():
    cache = PageCache(NVMeSSD(Clock()), capacity=64 * 4096)
    cache.write_through(range(32))
    assert len(cache) == 32
    pages = cache.resize(8 * 4096)
    assert pages == 8
    assert len(cache) <= 8
    # Durable state is device-side truth; quota moves must not touch it.
    for page in range(32):
        assert page in cache.durable_image.pages
    # Growing just raises the ceiling; nothing is prefetched back.
    assert cache.resize(128 * 4096) == 128
    assert len(cache) <= 8


def test_page_cache_resize_rejects_sub_page_quota():
    cache = PageCache(NVMeSSD(Clock()), capacity=16 * 4096)
    with pytest.raises(ValueError):
        cache.resize(100)


# ---------------------------------------------------------------------
# H2 byte budget (the arbiter's device-footprint lever)
# ---------------------------------------------------------------------
def _teraheap_vm(h2_size=gb(4), budget=None):
    vm = JavaVM(
        VMConfig(
            heap_size=gb(1),
            teraheap=TeraHeapConfig(enabled=True, h2_size=h2_size),
            page_cache_size=gb(1),
        ),
    )
    if budget is not None:
        vm.h2.byte_budget = budget
    return vm


def test_h2_byte_budget_denies_region_allocation():
    region = TeraHeapConfig().region_size
    vm = _teraheap_vm(budget=2 * region)
    vm.h2._new_region("a", epoch=0)
    vm.h2._new_region("b", epoch=0)
    with pytest.raises(DeviceFullError) as excinfo:
        vm.h2._new_region("c", epoch=0)
    assert getattr(excinfo.value, "budget_denial", False)


def test_h2_budget_denial_does_not_burn_the_failure_budget():
    """An arbiter quota denial is elastic — it must not degrade H2."""
    region = TeraHeapConfig().region_size
    vm = _teraheap_vm(budget=region)
    vm.h2._new_region("warm", epoch=0)
    anchor = vm.allocate(64, name="anchor")
    vm.roots.add(anchor)
    for _ in range(64):
        obj = vm.allocate(8 * KiB)
        vm.write_ref(anchor, obj)
    vm.h2_tag_root(anchor, "cold")
    vm.h2_move("cold")
    vm.major_gc()
    assert vm.collector.h2_transfers_denied > 0
    if vm.resilience is not None:
        assert vm.resilience.failures == 0
        assert not vm.resilience.degraded


# ---------------------------------------------------------------------
# Bandwidth arbiter
# ---------------------------------------------------------------------
def _arbiter(work_conserving=True):
    return BandwidthArbiter(
        read_bw=1000.0, write_bw=1000.0, work_conserving=work_conserving
    )


def test_arbiter_default_share_is_the_guarantee():
    arb = _arbiter()
    for name in ("a", "b", "c", "d"):
        arb.register(name)
    assert arb.share("a") == pytest.approx(0.25)


def test_arbiter_never_caps_an_active_tenant_below_its_guarantee():
    arb = _arbiter()
    arb.register("busy")
    arb.register("idle")
    # "busy" demands more than the device can give; "idle" does nothing.
    arb.note("busy", 2000, write=False)
    arb.end_epoch(1.0)
    assert arb.share("idle") == pytest.approx(0.5)
    assert arb.share("busy") > 0.5


def test_arbiter_retired_tenant_donates_its_guarantee():
    arb = _arbiter()
    arb.register("heavy")
    arb.register("done")
    arb.note("heavy", 1500, write=False)
    arb.note("done", 100, write=False)
    arb.end_epoch(1.0)
    before = arb.share("heavy")
    arb.retire("done")
    arb.note("heavy", 1500, write=False)
    arb.end_epoch(1.0)
    assert arb.share("heavy") > before
    assert arb.share("heavy") > 0.9


def test_static_partition_ignores_demand():
    arb = _arbiter(work_conserving=False)
    arb.register("heavy")
    arb.register("done")
    arb.note("heavy", 5000, write=False)
    arb.retire("done")
    arb.end_epoch(1.0)
    assert arb.share("heavy") == pytest.approx(0.5)
    assert arb.share("done") == pytest.approx(0.5)


def test_tenant_device_scales_bandwidth_by_share_and_survives_rebind():
    template = NVMeSSD(Clock())
    arb = BandwidthArbiter(template.read_bw, template.write_bw)
    dev_a = TenantDevice(template, arb, "a")
    TenantDevice(template, arb, "b")
    solo_cost = template.read(64 * KiB)
    shared_cost = dev_a.read(64 * KiB)
    assert shared_cost > solo_cost
    # The facade's base bandwidth is restored after every transfer.
    assert dev_a.read_bw == template.read_bw
    # rebind() (what JavaVM does to foreign-clock devices) must keep the
    # arbitration link: same tenant identity, same arbiter.
    clone = dev_a.rebind(Clock())
    assert clone.tenant == "a"
    assert clone.arbiter is arb
    read_before = arb._links["a"].total_read
    clone.read(4 * KiB)
    assert arb._links["a"].total_read > read_before


# ---------------------------------------------------------------------
# Shared health monitor: one device, one classification
# ---------------------------------------------------------------------
def test_shared_monitor_gives_all_tenants_one_classification():
    box_clock = Clock()
    monitor = DeviceHealthMonitor(box_clock)
    vms = [
        JavaVM(
            VMConfig(
                heap_size=gb(1),
                teraheap=TeraHeapConfig(enabled=True, h2_size=gb(4)),
                page_cache_size=gb(1),
                governor=GovernorConfig(),
            ),
            health=monitor,
        )
        for _ in range(2)
    ]
    assert all(vm.health is monitor for vm in vms)
    # One brownout on the shared device...
    for _ in range(64):
        monitor.observe_error("nvme", "read")
    state = monitor.state_of("nvme")
    assert state is not DeviceState.HEALTHY
    # ...is the single classification every tenant's governor consults.
    assert vms[0].health.state_of("nvme") is state
    assert vms[1].health.state_of("nvme") is state
    # Retiring one tenant detaches only its own listeners.
    listeners_before = len(monitor._listeners)
    vms[0].retire()
    assert 0 < len(monitor._listeners) < listeners_before
    vms[1].retire()
    assert len(monitor._listeners) == 0


# ---------------------------------------------------------------------
# Session scoping: a policy counts once, however often it is tracked
# ---------------------------------------------------------------------
def test_session_counts_each_policy_once():
    session = RunSession()
    policy = ResiliencePolicy(FaultConfig(), Clock())
    session.track_policy(policy)
    policy.plan.injected["latency"] = 3
    assert session.summary()["faults_injected"] == 3
    session.track_policy(policy)  # idempotent: no double count
    assert session.summary()["faults_injected"] == 3


def test_session_keeps_counts_not_vms():
    """A finished VM's heap is freed; the session still reports it."""
    session = RunSession(faults=FaultConfig(seed=3), audit="cheap")
    vm = JavaVM(
        VMConfig(
            heap_size=gb(1),
            teraheap=TeraHeapConfig(enabled=True, h2_size=gb(4)),
            page_cache_size=gb(1),
        ),
        session=session,
    )
    vm.allocate(1024)
    vm.minor_gc()
    store = weakref.ref(vm.store)
    del vm
    gc.collect()
    assert store() is None
    assert session.summary()["audits_run"] == 1


# ---------------------------------------------------------------------
# ServerBox: arbitration bounds and determinism
# ---------------------------------------------------------------------
def _small_spec(**kw):
    defaults = dict(
        tenants=2, mean_dataset_bytes=gb(1) // 4, arbiter=True
    )
    defaults.update(kw)
    return ServerSpec(**defaults)


def test_box_pressure_arbiter_keeps_levers_in_bounds():
    spec = _small_spec(tenants=3)
    box = ServerBox(spec)
    box.run()
    region = TeraHeapConfig().region_size
    saw_decision = False
    for record in box.pressure.records:
        for name, high in record.watermarks.items():
            saw_decision = True
            assert 0.60 <= high <= 0.85
        budgets = record.h2_budgets
        if budgets:
            assert sum(budgets.values()) <= H2_CAPACITY
            for budget in budgets.values():
                assert budget % region == 0
        for pages in record.cache_pages.values():
            assert pages >= 1
    assert saw_decision
    for link in box.bandwidth._links.values():
        assert link.share is None or 0.0 < link.share <= 1.0


def test_box_tenants_have_private_stores_and_shared_monitor():
    box = ServerBox(_small_spec())
    stores = [t.vm.store for t in box.tenants]
    assert stores[0] is not stores[1]
    assert box.tenants[0].vm.health is box.tenants[1].vm.health
    report = box.run()
    assert report.makespan > 0
    assert all(t.processed_bytes > 0 for t in report.tenants)
    # Every tenant moved data to H2: co-location exercised TeraHeap.
    assert all(t.h2_moved_bytes > 0 for t in report.tenants)


def test_box_runs_are_deterministic():
    a = ServerBox(_small_spec(tenants=3)).run()
    b = ServerBox(_small_spec(tenants=3)).run()
    assert a.makespan == b.makespan
    assert a.aggregate_throughput == b.aggregate_throughput
    assert a.epoch_log == b.epoch_log
    for ta, tb in zip(a.tenants, b.tenants):
        assert ta == tb


def test_control_box_keeps_static_budgets():
    spec = _small_spec(arbiter=False)
    box = ServerBox(spec)
    region = TeraHeapConfig().region_size
    expected = H2_CAPACITY // spec.tenants
    expected -= expected % region
    box.run()
    for tenant in box.tenants:
        assert tenant.vm.h2.byte_budget == expected
