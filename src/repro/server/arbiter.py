"""Shared-device bandwidth arbitration and the global pressure arbiter.

Two cooperating controllers make co-location work:

1. The :class:`BandwidthArbiter` owns the physical device's bandwidth.
   Every tenant sees the device through a :class:`TenantDevice` facade
   whose effective bandwidth is ``nominal * share``; shares start at the
   guaranteed ``1/N`` and, in work-conserving mode, are recomputed each
   epoch so tenants that demonstrably need less than their guarantee
   lend the surplus to tenants that want more.  The no-arbiter control
   configuration (``work_conserving=False``) keeps the static ``1/N``
   partition forever — the strawman the serverscale experiment compares
   against.

2. The :class:`MemoryPressureArbiter` owns the box's memory budgets.
   It observes per-tenant GC-share and alloc-stall EWMAs at every epoch
   and re-carves three levers: the H2 device byte budget
   (:attr:`~repro.teraheap.h2_heap.H2Heap.byte_budget`), the DR2 page
   cache quota (:meth:`~repro.devices.page_cache.PageCache.resize`) and
   the H1 high/low watermarks (the mutable
   :class:`~repro.teraheap.thresholds.ThresholdPolicy` attributes).  H1
   itself cannot be resized live — space extents and card-table ranges
   are frozen at VM construction — so the watermark is the H1 lever: a
   pressured tenant is told to start offloading to H2 earlier, which
   frees H1 headroom without moving heap boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..devices.base import Device


class TenantDevice(Device):
    """One tenant's view of a shared physical device.

    A plain :class:`Device` clone of the template, except that every
    transfer is charged at ``nominal_bw * share(tenant)`` and reported
    to the arbiter so the next epoch's shares reflect real demand.
    Latency is not scaled: queueing is folded into the bandwidth share,
    which is the contention effect the fair-share model captures.

    The facade survives :meth:`Device.rebind` (``copy.copy`` preserves
    the ``arbiter``/``tenant`` instance attributes), so handing it to a
    :class:`JavaVM` — which rebinds foreign-clock devices onto its own
    clock — keeps the arbitration link intact.
    """

    def __init__(self, template: Device, arbiter: "BandwidthArbiter", tenant: str):
        super().__init__(
            name=template.name,
            capacity=template.capacity,
            read_latency=template.read_latency,
            write_latency=template.write_latency,
            read_bw=template.read_bw,
            write_bw=template.write_bw,
            page_size=template.page_size,
            random_penalty=template.random_penalty,
        )
        self.arbiter = arbiter
        self.tenant = tenant
        arbiter.register(tenant)

    def _transfer(self, write, nbytes, pattern, requests, share=1.0):
        cost = super()._transfer(
            write, nbytes, pattern, requests, self.arbiter.share(self.tenant)
        )
        self.arbiter.note(self.tenant, self._granular(nbytes), write=write)
        return cost


class _Link:
    """Arbiter-side state for one registered tenant."""

    __slots__ = (
        "share",
        "busy_ewma",
        "epoch_read",
        "epoch_written",
        "total_read",
        "total_written",
        "active",
    )

    def __init__(self) -> None:
        self.share: Optional[float] = None
        self.busy_ewma: Optional[float] = None
        self.epoch_read = 0
        self.epoch_written = 0
        self.total_read = 0
        self.total_written = 0
        self.active = True


class BandwidthArbiter:
    """Fair-share carve-up of one device's bandwidth across tenants.

    Each tenant is *guaranteed* ``1/N`` of the nominal bandwidth.  In
    work-conserving mode the arbiter measures each tenant's demanded
    busy fraction per epoch (bytes moved at nominal speed over the
    epoch length, smoothed by an EWMA), lets low-demand tenants keep
    only what they use (plus headroom), and hands the surplus to
    tenants whose demand exceeds their guarantee, proportional to their
    excess.  A retired (finished or crashed-for-good) tenant's demand
    drops to zero immediately, so its whole guarantee becomes surplus
    at the next epoch boundary.

    Shares never drop below :attr:`MIN_SHARE` (a tenant can always make
    progress and re-grow its EWMA) and never exceed 1.0.
    """

    #: smoothing factor of the per-tenant demand EWMA
    EWMA_ALPHA = 0.5
    #: a low-demand tenant keeps this multiple of its measured demand
    HEADROOM = 1.25
    #: floor of any tenant's share
    MIN_SHARE = 0.05

    def __init__(
        self,
        read_bw: float,
        write_bw: float,
        work_conserving: bool = True,
    ):
        self.read_bw = read_bw
        self.write_bw = write_bw
        self.work_conserving = work_conserving
        #: insertion-ordered (= tenant boot order): iteration order is
        #: deterministic, which the double-run digest gate relies on
        self._links: Dict[str, _Link] = {}
        self.epochs = 0

    # ------------------------------------------------------------------
    def register(self, tenant: str) -> None:
        if tenant not in self._links:
            self._links[tenant] = _Link()

    def retire(self, tenant: str) -> None:
        """Tenant finished (or is gone for good): free its share."""
        link = self._links[tenant]
        link.active = False
        link.busy_ewma = 0.0

    def share(self, tenant: str) -> float:
        """Current bandwidth share in ``(0, 1]`` for ``tenant``."""
        link = self._links[tenant]
        if link.share is None:
            return 1.0 / max(1, len(self._links))
        return link.share

    def note(self, tenant: str, nbytes: int, write: bool) -> None:
        """A transfer completed: account it for demand estimation."""
        link = self._links[tenant]
        if write:
            link.epoch_written += nbytes
            link.total_written += nbytes
        else:
            link.epoch_read += nbytes
            link.total_read += nbytes

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(
            link.total_read + link.total_written
            for link in self._links.values()
        )

    def busy_seconds(self) -> float:
        """Device-busy seconds if all traffic ran at nominal speed."""
        return sum(
            link.total_read / self.read_bw
            + link.total_written / self.write_bw
            for link in self._links.values()
        )

    # ------------------------------------------------------------------
    def end_epoch(self, epoch_seconds: float) -> Dict[str, float]:
        """Close the epoch: fold demand EWMAs, recompute shares.

        Returns the new share map (name -> share) for the epoch record.
        """
        self.epochs += 1
        n = max(1, len(self._links))
        guarantee = 1.0 / n
        alpha = self.EWMA_ALPHA
        for link in self._links.values():
            busy = (
                link.epoch_read / self.read_bw
                + link.epoch_written / self.write_bw
            ) / max(epoch_seconds, 1e-12)
            if link.busy_ewma is None:
                link.busy_ewma = busy
            else:
                link.busy_ewma = alpha * busy + (1.0 - alpha) * link.busy_ewma
            link.epoch_read = 0
            link.epoch_written = 0

        if not self.work_conserving:
            for link in self._links.values():
                link.share = guarantee
            return {name: guarantee for name in self._links}

        want: Dict[str, float] = {}
        for name, link in self._links.items():
            if not link.active:
                want[name] = 0.0
            else:
                want[name] = max(
                    (link.busy_ewma or 0.0) * self.HEADROOM,
                    self.MIN_SHARE,
                )
        # Surplus is what tenants demonstrably leave on the table — but
        # an active tenant is never *capped* at its demand: it keeps its
        # full guarantee (unused share is not a throttle), and only the
        # hungry draw from the donated headroom.  Shares may transiently
        # sum above 1.0 when a donor's demand spikes mid-epoch; the next
        # boundary re-converges, which is the fair-queueing trade-off.
        claimed = {name: min(guarantee, want[name]) for name in self._links}
        surplus = max(0.0, 1.0 - sum(claimed.values()))
        hunger = {
            name: want[name] - guarantee
            for name, link in self._links.items()
            if link.active and want[name] > guarantee
        }
        total_hunger = sum(hunger.values())
        shares: Dict[str, float] = {}
        for name, link in self._links.items():
            if not link.active:
                link.share = self.MIN_SHARE
            else:
                extra = 0.0
                if total_hunger > 0.0 and name in hunger:
                    extra = surplus * hunger[name] / total_hunger
                link.share = min(1.0, guarantee + extra)
            shares[name] = link.share
        return shares


# ======================================================================
# Global memory-pressure arbitration
# ======================================================================
@dataclass
class TenantPressure:
    """One tenant's smoothed pressure signals, updated per epoch."""

    gc_share: float = 0.0
    stall_share: float = 0.0
    miss_rate: float = 0.0
    # snapshots of the monotone counters the deltas come from
    wall: float = 0.0
    gc_seconds: float = 0.0
    stall_seconds: float = 0.0
    misses: int = 0

    @property
    def pressure(self) -> float:
        return self.gc_share + self.stall_share


@dataclass
class EpochRecord:
    """One arbitration epoch's decisions, digest-stable."""

    epoch: int
    time: float
    shares: Dict[str, float] = field(default_factory=dict)
    watermarks: Dict[str, float] = field(default_factory=dict)
    h2_budgets: Dict[str, int] = field(default_factory=dict)
    cache_pages: Dict[str, int] = field(default_factory=dict)
    pressures: Dict[str, float] = field(default_factory=dict)

    def canonical(self) -> str:
        parts = [f"epoch={self.epoch}", f"t={self.time:.6f}"]
        for name in sorted(self.pressures):
            parts.append(
                "%s:p=%.6f,s=%.4f,hi=%.2f,h2=%d,pc=%d"
                % (
                    name,
                    self.pressures[name],
                    self.shares.get(name, 0.0),
                    self.watermarks.get(name, 0.0),
                    self.h2_budgets.get(name, 0),
                    self.cache_pages.get(name, 0),
                )
            )
        return "|".join(parts)


class MemoryPressureArbiter:
    """Epoch-driven reallocation of memory budgets across tenants.

    Every epoch the arbiter reads each live tenant's clock deltas and
    folds them into EWMAs of *GC share* (GC seconds per wall second),
    *alloc-stall share* and *page-cache miss rate*.  When enabled it
    then moves three levers, all bounded and all reversible:

    - **H1 watermarks.**  Tenants whose pressure EWMA sits above the
      active mean get their :class:`ThresholdPolicy` high watermark
      stepped down (earlier H2 offload, more H1 headroom); tenants
      below the mean relax back toward the configured value.  The low
      watermark follows at a fixed gap.
    - **H2 byte budgets.**  The shared device's capacity is re-carved:
      every active tenant keeps a floor of ``capacity / 2N`` and the
      rest is dealt proportionally to current H2 footprint, rounded
      down to region multiples.  Budgets are soft caps enforced at
      region allocation (``budget_denial`` — not a device failure).
    - **DR2 quotas.**  The box's page-cache budget is re-carved with a
      ``dr2 / 2N`` floor and the remainder proportional to miss-rate
      EWMAs; shrinking evicts immediately, durable state is untouched.

    With ``enabled=False`` the arbiter still observes (the serverscale
    experiment reports pressure curves for the control runs too) but
    never mutates — budgets stay at the static equal split the box set
    at boot.
    """

    #: watermark step per epoch and its floor
    WATERMARK_STEP = 0.05
    WATERMARK_FLOOR = 0.60
    #: dead-band around the mean pressure before we move anything
    DEAD_BAND = 0.02
    #: smoothing factor of the per-tenant pressure EWMAs
    EWMA_ALPHA = 0.5

    def __init__(
        self,
        h2_capacity: int,
        region_size: int,
        dr2_budget: int,
        page_size: int,
        enabled: bool = True,
    ):
        self.h2_capacity = h2_capacity
        self.region_size = region_size
        self.dr2_budget = dr2_budget
        self.page_size = page_size
        self.enabled = enabled
        self._pressure: Dict[str, TenantPressure] = {}
        #: per-tenant configured (relaxed) watermarks, captured at attach
        self._base_high: Dict[str, float] = {}
        self._base_gap: Dict[str, float] = {}
        self.records: List[EpochRecord] = []

    # ------------------------------------------------------------------
    def attach(self, name: str, vm) -> None:
        """Start observing ``vm`` under ``name``."""
        policy = vm.collector.policy
        self._pressure[name] = TenantPressure()
        self._base_high[name] = policy.high_threshold
        low = policy.low_threshold
        self._base_gap[name] = (
            policy.high_threshold - low if low is not None else 0.35
        )

    # ------------------------------------------------------------------
    def _observe(self, name: str, tenant) -> TenantPressure:
        from ..clock import Bucket

        vm = tenant.vm
        state = self._pressure[name]
        wall = vm.clock.now
        gc = vm.clock.total(Bucket.MINOR_GC) + vm.clock.total(Bucket.MAJOR_GC)
        stall = vm.clock.total(Bucket.ALLOC_STALL)
        misses = vm.h2.page_cache.misses if vm.h2 is not None else 0
        d_wall = wall - state.wall
        alpha = self.EWMA_ALPHA
        if d_wall > 1e-12:
            gc_share = (gc - state.gc_seconds) / d_wall
            stall_share = (stall - state.stall_seconds) / d_wall
            miss_rate = (misses - state.misses) / d_wall
            state.gc_share = alpha * gc_share + (1 - alpha) * state.gc_share
            state.stall_share = (
                alpha * stall_share + (1 - alpha) * state.stall_share
            )
            state.miss_rate = alpha * miss_rate + (1 - alpha) * state.miss_rate
        state.wall = wall
        state.gc_seconds = gc
        state.stall_seconds = stall
        state.misses = misses
        return state

    # ------------------------------------------------------------------
    def epoch(self, box_time: float, tenants, shares: Dict[str, float]) -> EpochRecord:
        """Run one arbitration epoch over ``tenants`` (name -> Tenant)."""
        record = EpochRecord(
            epoch=len(self.records) + 1, time=box_time, shares=dict(shares)
        )
        active = {}
        for name, tenant in tenants.items():
            state = self._observe(name, tenant)
            record.pressures[name] = state.pressure
            if not tenant.finished:
                active[name] = tenant

        if active:
            if self.enabled:
                self._rebalance(active, record)
            else:
                for name, tenant in active.items():
                    policy = tenant.vm.collector.policy
                    record.watermarks[name] = policy.high_threshold
                    record.h2_budgets[name] = tenant.vm.h2.byte_budget or 0
                    record.cache_pages[name] = tenant.vm.h2.page_cache.max_pages
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    def _rebalance(self, active, record: EpochRecord) -> None:
        n = len(active)
        mean = sum(self._pressure[name].pressure for name in active) / n

        # --- H1 watermarks -------------------------------------------
        for name, tenant in active.items():
            policy = tenant.vm.collector.policy
            pressure = self._pressure[name].pressure
            high = policy.high_threshold
            if pressure > mean + self.DEAD_BAND:
                high = max(self.WATERMARK_FLOOR, high - self.WATERMARK_STEP)
            elif pressure < mean - self.DEAD_BAND:
                high = min(self._base_high[name], high + self.WATERMARK_STEP)
            policy.high_threshold = high
            if policy.low_threshold is not None:
                policy.low_threshold = max(
                    0.25, high - self._base_gap[name]
                )
            record.watermarks[name] = high

        # --- H2 byte budgets -----------------------------------------
        floor = self.h2_capacity // (2 * n)
        floor -= floor % self.region_size
        floor = max(floor, self.region_size)
        spare = self.h2_capacity - floor * n
        weights = {
            name: max(
                tenant.vm.h2.used_bytes() if tenant.vm.h2 else 0,
                self.region_size,
            )
            for name, tenant in active.items()
        }
        total_weight = sum(weights.values())
        for name, tenant in active.items():
            extra = int(spare * weights[name] / total_weight)
            budget = floor + extra - (floor + extra) % self.region_size
            tenant.vm.h2.byte_budget = budget
            record.h2_budgets[name] = budget

        # --- DR2 page-cache quotas -----------------------------------
        pc_floor = max(self.page_size, self.dr2_budget // (2 * n))
        pc_spare = max(0, self.dr2_budget - pc_floor * n)
        miss_weights = {
            name: max(self._pressure[name].miss_rate, 1e-9)
            for name in active
        }
        total_miss = sum(miss_weights.values())
        for name, tenant in active.items():
            quota = pc_floor + int(pc_spare * miss_weights[name] / total_miss)
            pages = tenant.vm.h2.page_cache.resize(quota)
            record.cache_pages[name] = pages
