"""The server box: N co-located tenant VMs over one device and one DRAM budget.

A :class:`ServerBox` is the unit the serverscale experiment sweeps: it
boots ``spec.tenants`` JavaVMs — each with a *private* heap store, its
own clock, and a :class:`TenantDevice` facade over the one shared NVMe
— wires them all to one shared :class:`DeviceHealthMonitor` and the two
arbiters, and interleaves their workloads under a deterministic
min-clock scheduler: the tenant whose virtual time is furthest behind
steps next (ties broken by boot order), so simulated time advances like
a discrete-event simulation and the interleaving is a pure function of
the spec.

Epoch boundaries live on *box* virtual time (the min over active
tenants); at each boundary the bandwidth arbiter refreshes fair shares
from demand EWMAs and the memory-pressure arbiter re-carves H2 byte
budgets, DR2 quotas and H1 watermarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..clock import Bucket, Clock
from ..config import GovernorConfig, TeraHeapConfig, VMConfig
from ..devices.health import DeviceHealthMonitor
from ..devices.nvme import NVMeSSD
from ..faults.session import RunSession
from ..runtime import JavaVM
from ..units import KiB, gb
from .arbiter import BandwidthArbiter, MemoryPressureArbiter, TenantDevice
from .workload import CHUNK_SIZE, CachedAnalyticsWorkload

#: simulated seconds between arbitration epochs (box virtual time)
EPOCH_SECONDS = 0.5
#: shared H2 device byte capacity carved across tenants
H2_CAPACITY = gb(16)
#: box-wide DR2 (page cache) budget carved across tenants
DR2_BUDGET = gb(1)
#: per-tenant H1 = HEAP_FACTOR * dataset: one iteration fits with
#: headroom, two cached iterations do not — the previous iteration
#: lives on H2 and its re-reads are device traffic
HEAP_FACTOR = 1.6


@dataclass
class ServerSpec:
    """Everything that determines a box run (and hence its digest)."""

    tenants: int = 2
    #: mean per-tenant dataset; actual datasets spread around the mean
    mean_dataset_bytes: int = gb(1)
    #: heterogeneity: tenant i's dataset = mean * (1 + spread*(2i/(n-1)-1))
    spread: float = 0.6
    #: True = work-conserving bandwidth + pressure arbitration;
    #: False = static 1/N partition everywhere (the control)
    arbiter: bool = True

    def dataset_bytes(self, index: int) -> int:
        if self.tenants <= 1:
            weight = 1.0
        else:
            weight = 1.0 + self.spread * (
                2.0 * index / (self.tenants - 1) - 1.0
            )
        raw = int(self.mean_dataset_bytes * weight)
        return max(CHUNK_SIZE, raw - raw % CHUNK_SIZE)


class Tenant:
    """One co-located VM plus its monotone cross-incarnation timeline.

    ``now`` is ``base_time + vm.clock.now``: when a tenant's VM is
    replaced (crash restart), :meth:`attach_vm` folds the dead
    incarnation's elapsed time into ``base_time``, so the tenant's
    timeline never moves backwards even though each incarnation's clock
    starts at zero.
    """

    def __init__(
        self,
        name: str,
        index: int,
        vm: JavaVM,
        workload: Optional[CachedAnalyticsWorkload],
        dataset_bytes: int,
    ):
        self.name = name
        self.index = index
        self.vm = vm
        self.workload = workload
        self.dataset_bytes = dataset_bytes
        self.base_time = 0.0
        self.finished = False
        self.finish_time: Optional[float] = None

    @property
    def now(self) -> float:
        return self.base_time + self.vm.clock.now

    def attach_vm(self, vm: JavaVM) -> None:
        """Swap in a successor VM, preserving timeline monotonicity."""
        self.base_time += self.vm.clock.now
        self.vm = vm
        if self.workload is not None:
            self.workload.vm = vm

    def step(self) -> None:
        self.workload.step()


@dataclass
class TenantReport:
    name: str
    dataset_bytes: int
    processed_bytes: int
    finish_time: float
    gc_seconds: float
    stall_seconds: float
    alloc_stalls: int
    pauses: int
    p99_pause: float
    h2_moved_bytes: int
    cache_hit_ratio: float
    device_read: int
    device_written: int

    @property
    def velocity(self) -> float:
        """Bytes processed per second over the tenant's whole run."""
        if self.finish_time <= 0:
            return 0.0
        return self.processed_bytes / self.finish_time

    @property
    def progress_rate(self) -> float:
        """Dataset passes completed per second — the fairness unit.

        Each tenant's "job" is one pass over its own dataset, so passes
        per second is throughput normalised per unit of work: the
        multi-tenant fairness convention (normalised progress).  Heavy
        tenants are intrinsically the slowest here, and they are exactly
        whom work-conserving borrowing helps — so a fair arbiter narrows
        the box-wide max/min spread of this rate.
        """
        if self.finish_time <= 0 or self.dataset_bytes <= 0:
            return 0.0
        return self.processed_bytes / self.finish_time / self.dataset_bytes


@dataclass
class BoxReport:
    spec_tenants: int
    arbiter: bool
    tenants: List[TenantReport] = field(default_factory=list)
    makespan: float = 0.0
    aggregate_throughput: float = 0.0
    device_busy_fraction: float = 0.0
    epochs: int = 0
    epoch_log: List[str] = field(default_factory=list)

    @property
    def fairness_gap(self) -> float:
        """max/min per-tenant progress rate (1.0 = perfectly fair)."""
        rates = [t.progress_rate for t in self.tenants if t.progress_rate > 0]
        if not rates:
            return 1.0
        return max(rates) / min(rates)


def _p99(values: List[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(0.99 * len(ordered)))
    return ordered[rank]


class ServerBox:
    """Boot, arbitrate and run N co-located tenants deterministically.

    Every tenant VM takes ``session``'s fault/audit defaults.
    """

    def __init__(
        self, spec: ServerSpec, session: Optional[RunSession] = None
    ):
        self.spec = spec
        #: box virtual time: the shared health monitor's timestamps and
        #: the epoch records live on this clock, advanced to the min of
        #: the active tenants' timelines at every epoch boundary
        self.clock = Clock()
        template = NVMeSSD(self.clock)
        self.bandwidth = BandwidthArbiter(
            read_bw=template.read_bw,
            write_bw=template.write_bw,
            work_conserving=spec.arbiter,
        )
        #: one health monitor for the one physical device — a brownout
        #: is a single classification every tenant's governor consults
        self.health = DeviceHealthMonitor(self.clock)
        region_size = TeraHeapConfig().region_size
        self.pressure = MemoryPressureArbiter(
            h2_capacity=H2_CAPACITY,
            region_size=region_size,
            dr2_budget=DR2_BUDGET,
            page_size=4 * KiB,
            enabled=spec.arbiter,
        )
        self.tenants: List[Tenant] = []
        n = spec.tenants
        for index in range(n):
            name = f"vm{index}"
            dataset = spec.dataset_bytes(index)
            heap = max(32 * CHUNK_SIZE, int(HEAP_FACTOR * dataset))
            config = VMConfig(
                heap_size=heap,
                teraheap=TeraHeapConfig(enabled=True, h2_size=H2_CAPACITY),
                page_cache_size=max(4 * KiB, DR2_BUDGET // n),
                governor=GovernorConfig(),
            )
            vm = JavaVM(
                config,
                h2_device=TenantDevice(template, self.bandwidth, name),
                health=self.health,
                session=session,
            )
            # Static equal split until the first arbitration epoch (and
            # forever, in the no-arbiter control).
            budget = H2_CAPACITY // n
            vm.h2.byte_budget = budget - budget % region_size
            workload = CachedAnalyticsWorkload(vm, name, dataset)
            tenant = Tenant(name, index, vm, workload, dataset)
            self.tenants.append(tenant)
            self.pressure.attach(name, vm)

    # ------------------------------------------------------------------
    def _advance_clock(self, target: float) -> None:
        delta = target - self.clock.now
        if delta > 0:
            self.clock.charge(delta, Bucket.OTHER)

    def _run_epoch(self, boundary: float) -> None:
        self._advance_clock(boundary)
        shares = self.bandwidth.end_epoch(EPOCH_SECONDS)
        by_name = {tenant.name: tenant for tenant in self.tenants}
        self.pressure.epoch(boundary, by_name, shares)

    # ------------------------------------------------------------------
    def run(self) -> BoxReport:
        next_epoch = EPOCH_SECONDS
        while True:
            pending = [t for t in self.tenants if not t.finished]
            if not pending:
                break
            tenant = min(pending, key=lambda t: (t.now, t.index))
            if tenant.now >= next_epoch:
                self._run_epoch(next_epoch)
                next_epoch += EPOCH_SECONDS
                continue
            tenant.step()
            if tenant.workload.done:
                tenant.finished = True
                tenant.finish_time = tenant.now
                self.bandwidth.retire(tenant.name)
        return self._report()

    # ------------------------------------------------------------------
    def _report(self) -> BoxReport:
        report = BoxReport(
            spec_tenants=self.spec.tenants, arbiter=self.spec.arbiter
        )
        total_processed = 0
        for tenant in self.tenants:
            vm = tenant.vm
            cycles = vm.collector.stats.cycles
            link = self.bandwidth._links[tenant.name]
            finish = tenant.finish_time or tenant.now
            total_processed += tenant.workload.processed_bytes
            report.tenants.append(
                TenantReport(
                    name=tenant.name,
                    dataset_bytes=tenant.dataset_bytes,
                    processed_bytes=tenant.workload.processed_bytes,
                    finish_time=finish,
                    gc_seconds=(
                        vm.clock.total(Bucket.MINOR_GC)
                        + vm.clock.total(Bucket.MAJOR_GC)
                    ),
                    stall_seconds=vm.clock.total(Bucket.ALLOC_STALL),
                    alloc_stalls=vm.alloc_stalls,
                    pauses=len(cycles),
                    p99_pause=_p99([c.duration for c in cycles]),
                    h2_moved_bytes=sum(c.moved_to_h2_bytes for c in cycles),
                    cache_hit_ratio=(
                        vm.h2.page_cache.hit_ratio if vm.h2 else 0.0
                    ),
                    device_read=link.total_read,
                    device_written=link.total_written,
                )
            )
        report.makespan = max(
            (t.finish_time or t.now) for t in self.tenants
        )
        if report.makespan > 0:
            report.aggregate_throughput = total_processed / report.makespan
            report.device_busy_fraction = min(
                1.0, self.bandwidth.busy_seconds() / report.makespan
            )
        report.epochs = len(self.pressure.records)
        report.epoch_log = [r.canonical() for r in self.pressure.records]
        return report
