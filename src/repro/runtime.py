"""The simulated JVM: the public API frameworks program against.

``JavaVM`` wires together the managed heap (H1), the configured collector,
the optional TeraHeap second heap (H2) over a storage device, the write
barriers, and the simulated clock.  Frameworks allocate objects, update
references and read objects exclusively through this facade, so every
cost — allocation, barriers, GC, S/D, device I/O — is accounted.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from .clock import Bucket, Clock
from .config import VMConfig
from .devices.base import AccessPattern, Device
from .devices.health import DeviceHealthMonitor
from .devices.nvme import NVMeSSD
from .errors import ConfigError, OutOfMemoryError, SegmentationFault
from .faults import (
    get_default_audit_level,
    get_default_fault_config,
    get_default_governor_config,
    register_auditor,
    register_policy,
    unregister_auditor,
    unregister_policy,
)
from .faults.plan import FaultConfig
from .faults.policy import ResiliencePolicy
from .heap.audit import HeapAuditor, make_auditor
from .heap.store import HeapStore, get_store
from .gc.parallel_scavenge import (
    ParallelScavenge,
    ParallelScavengeJDK11,
    PromotionFailure,
)
from .heap.barriers import WriteBarrier
from .heap.heap import ManagedHeap
from .heap.object_model import HeapObject, SpaceId
from .heap.roots import RootSet
from .serdes.serializer import KryoSerializer
from .teraheap.h2_heap import H2Heap
from .teraheap.hints import HintInterface
from .units import KiB

#: granularity of temporary-object allocation bursts (S/D pressure)
TEMP_CHUNK = 8 * KiB


class JavaVM:
    """One simulated JVM instance."""

    def __init__(
        self,
        config: VMConfig,
        h2_device: Optional[Device] = None,
        old_gen_device: Optional[Device] = None,
        store: Optional[HeapStore] = None,
        health: Optional[DeviceHealthMonitor] = None,
    ):
        self.config = config
        self.cost = config.cost
        self.clock = Clock()
        #: the struct-of-arrays store all of this VM's objects live in.
        #: ``None`` attaches the process-default store (the single-VM
        #: path, byte-identical to the historical singleton behaviour);
        #: co-located tenants pass a private ``HeapStore`` each so oid
        #: rows and handles can never alias across VMs and one tenant's
        #: store reset cannot invalidate a sibling's live objects.
        self.store = store if store is not None else get_store()
        self.roots = RootSet()
        self.hints = HintInterface()
        self.h2: Optional[H2Heap] = None
        self.old_gen_device = old_gen_device
        self.resilience: Optional[ResiliencePolicy] = None
        self.auditor: Optional[HeapAuditor] = None
        #: device-health watchdog + H2 circuit breaker (teraheap only).
        #: May be a *shared* monitor injected by the server layer, in
        #: which case this VM only owns its listener registrations.
        self.health: Optional[DeviceHealthMonitor] = None
        self._owns_health = True
        self.governor = None
        self._registered_policy = False
        self._registered_auditor = False
        #: callbacks ``fn(target_bytes) -> freed_bytes`` run under
        #: emergency backpressure (e.g. block-manager cache shedding)
        self.pressure_handlers = []
        #: allocation-stall rounds spent in emergency backpressure
        self.alloc_stalls = 0
        #: emergency full GCs run by the backpressure path
        self.emergency_gcs = 0
        #: set by :meth:`retire` once a successor VM replaced this one
        self.retired = False

        if config.collector == "g1":
            from .gc.g1 import G1Collector, G1Heap, G1WriteBarrier

            self.heap = G1Heap(config)
            self.collector = G1Collector(
                self.heap, self.roots, self.clock, config
            )
            self.barrier = G1WriteBarrier(
                self.collector, self.clock, self.cost
            )
        else:
            self.heap = ManagedHeap(config)
            if config.teraheap.enabled:
                if h2_device is None:
                    h2_device = NVMeSSD(self.clock)
                elif h2_device.clock is not self.clock:
                    # Rebind a caller-supplied device to this VM's clock
                    # on a copy: mutating the original would silently
                    # redirect the charges (and traffic counters) of any
                    # other VM still using it.
                    h2_device = h2_device.rebind(self.clock)
                fault_cfg = config.faults or get_default_fault_config()
                if fault_cfg is not None:
                    self.resilience = ResiliencePolicy(fault_cfg, self.clock)
                    if config.faults is None:
                        # Armed via the process-global default (the CLI's
                        # --faults flag): register for aggregate reporting.
                        register_policy(self.resilience)
                        self._registered_policy = True
                gov_cfg = config.governor or get_default_governor_config()
                if gov_cfg is not None and gov_cfg.enabled:
                    from .teraheap.governor import H2Governor

                    if self.resilience is None:
                        # The monitor is fed by the fault injectors; with
                        # no fault plan configured, wrap devices with a
                        # benign (inject-nothing) plan so timings still
                        # flow to the watchdog.
                        self.resilience = ResiliencePolicy(
                            FaultConfig(), self.clock
                        )
                    if health is not None:
                        # Shared monitor (co-located tenants watching one
                        # physical device): one EWMA set, one HEALTHY/
                        # DEGRADED/BROWNOUT classification every tenant's
                        # governor consults — not N divergent copies.
                        self.health = health
                        self._owns_health = False
                    else:
                        self.health = DeviceHealthMonitor(
                            self.clock, gov_cfg.health
                        )
                    log = self.resilience.log
                    self.health.add_listener(
                        lambda t: log.record_health(
                            t.time, t.device, t.old.value, t.new.value,
                            t.reason,
                        ),
                        owner=self,
                    )
                    self.resilience.attach_monitor(self.health)
                    self.governor = H2Governor(
                        gov_cfg, self.health, self.clock, log=log,
                        owner=self,
                    )
                self.h2 = H2Heap(
                    config.teraheap,
                    h2_device,
                    self.clock,
                    config.page_cache_size,
                    resilience=self.resilience,
                    store=self.store,
                )
                from .teraheap.collector import TeraHeapCollector

                self.collector = TeraHeapCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    self.h2,
                    self.hints,
                    governor=self.governor,
                )
            elif config.collector == "panthera":
                from .gc.panthera import PantheraCollector

                if (
                    old_gen_device is not None
                    and old_gen_device.clock is not self.clock
                ):
                    old_gen_device = old_gen_device.rebind(self.clock)
                    self.old_gen_device = old_gen_device
                self.collector = PantheraCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    nvm=old_gen_device,
                )
                if config.panthera is not None:
                    self.heap.pretenure_threshold = (
                        config.panthera.pretenure_threshold
                    )
            elif config.collector == "memmode":
                from .devices.nvm import NVMMemoryMode
                from .gc.memory_mode import MemoryModeCollector

                if old_gen_device is None:
                    old_gen_device = NVMMemoryMode(self.clock)
                elif old_gen_device.clock is not self.clock:
                    old_gen_device = old_gen_device.rebind(self.clock)
                self.old_gen_device = old_gen_device
                self.collector = MemoryModeCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    device=old_gen_device,
                )
            elif config.collector == "ps11":
                self.collector = ParallelScavengeJDK11(
                    self.heap, self.roots, self.clock, config
                )
            else:
                self.collector = ParallelScavenge(
                    self.heap, self.roots, self.clock, config
                )
            self.barrier = WriteBarrier(
                self.heap,
                self.clock,
                self.cost,
                h2_card_table=self.h2.card_table if self.h2 else None,
                enable_teraheap=config.teraheap.enabled,
            )

        # Collectors default to the process-wide store; a VM built over a
        # private store re-attaches so trace kernels index its columns.
        self.collector.store = self.store
        self.serializer = KryoSerializer(
            self.clock, self.cost, allocate_temp=self.allocate_temp
        )
        self.oom = False
        #: per-label H1 anchors installed by recover_h2(), re-rooting
        #: rehydrated H2 objects so region liveness survives the crash
        self.h2_recovery_anchors: Dict[str, HeapObject] = {}

        audit_level = (
            config.audit
            or os.environ.get("REPRO_AUDIT")
            or get_default_audit_level()
        )
        if audit_level:
            self.auditor = make_auditor(self, audit_level)
            if self.auditor is not None and config.audit is None:
                register_auditor(self.auditor)
                self._registered_auditor = True

    # ==================================================================
    # Allocation
    # ==================================================================
    def allocate(
        self,
        size: int,
        refs: Iterable[HeapObject] = (),
        name: str = "",
        is_metadata: bool = False,
        is_reference: bool = False,
        serializable: bool = True,
    ) -> HeapObject:
        """Allocate one object, collecting as needed (may raise OOM)."""
        obj = HeapObject(
            size,
            refs,
            name=name,
            is_metadata=is_metadata,
            is_reference=is_reference,
            serializable=serializable,
            store=self.store,
        )
        self.clock.charge(self.cost.alloc_cost, Bucket.OTHER)
        if self.heap.try_allocate(obj):
            return obj
        # Slow path: collect, escalating from scavenge to full GC.
        self.minor_gc()
        if self.heap.try_allocate(obj):
            return obj
        self.major_gc()
        if self.heap.try_allocate(obj):
            return obj
        if self._emergency_backpressure(obj):
            return obj
        self.oom = True
        message = f"cannot allocate {size} B after full GC"
        context = self._degradation_context()
        if context:
            message = f"{message} ({context})"
        raise OutOfMemoryError(
            message,
            requested=size,
            available=self.heap.capacity - self.heap.used(),
            context=context,
            heap_report=self.diagnostic_heap_report(),
        )

    def _degradation_context(self) -> str:
        """Resilience fallback description attached to OOM errors."""
        if self.resilience is None:
            return ""
        return self.resilience.degradation_context()

    # ==================================================================
    # Emergency backpressure (governor OPEN + H1 past the watermark)
    # ==================================================================
    def register_pressure_handler(self, fn) -> None:
        """Register ``fn(target_bytes) -> freed_bytes``, called when the
        VM applies emergency backpressure instead of raising OOM.

        Retired VMs refuse registrations: a handler rooted in a dead
        incarnation must never fire again."""
        if self.retired:
            return
        self.pressure_handlers.append(fn)

    def stall_for_capacity(self, nbytes: int) -> int:
        """Pre-allocation backpressure for bulk buffer producers.

        Shuffle buffers and streaming blocks arrive in partition-sized
        bursts; waiting for :meth:`allocate`'s per-object emergency path
        means the burst is already half landed when the stall hits.
        Callers that know they are about to produce ``nbytes`` call this
        first: if the governor reports an emergency (circuit OPEN and H1
        past the watermark), one stall round is charged — the thread
        parks (``Bucket.ALLOC_STALL``) while the registered pressure
        handlers shed cached bytes — before a single buffer byte exists.
        Returns the bytes the handlers freed; 0 when no emergency is
        active (the common, free case).
        """
        if self.governor is None or self.heap.capacity <= 0:
            return 0
        occupancy = self.heap.used() / self.heap.capacity
        if not self.governor.emergency_active(occupancy):
            return 0
        gov_cfg = self.governor.config
        self.alloc_stalls += 1
        self.clock.charge(gov_cfg.alloc_stall_wait, Bucket.ALLOC_STALL)
        self.clock.record_event("alloc_stall", gov_cfg.alloc_stall_wait)
        target = max(nbytes, int(0.05 * self.heap.capacity))
        freed = 0
        for handler in self.pressure_handlers:
            freed += handler(target)
        return freed

    def _emergency_backpressure(self, obj: HeapObject) -> bool:
        """Last line before OOM: stall, shed cached data, GC, retry.

        Only runs while the H2 governor has the circuit open and H1 sits
        past the emergency watermark — the situation where the device
        brownout (not the workload) pinned data in H1.  Each round parks
        the allocating thread (charged to ``Bucket.ALLOC_STALL``), asks
        the registered pressure handlers to shed droppable bytes, and
        runs an emergency full GC.  Returns True once ``obj`` allocated;
        False means true exhaustion and the caller raises OOM.
        """
        if self.governor is None:
            return False
        occupancy = self.heap.used() / self.heap.capacity
        if not self.governor.emergency_active(occupancy):
            return False
        gov_cfg = self.governor.config
        target = max(obj.size, int(0.05 * self.heap.capacity))
        for _ in range(gov_cfg.max_emergency_rounds):
            self.alloc_stalls += 1
            self.clock.charge(gov_cfg.alloc_stall_wait, Bucket.ALLOC_STALL)
            self.clock.record_event("alloc_stall", gov_cfg.alloc_stall_wait)
            freed = 0
            for handler in self.pressure_handlers:
                freed += handler(target)
            self.emergency_gcs += 1
            self.major_gc()
            if self.heap.try_allocate(obj):
                return True
            if freed == 0:
                # Nothing left to shed and GC cannot free more: more
                # rounds would only burn stall time before the same OOM.
                return False
        return False

    def diagnostic_heap_report(self) -> str:
        """Multi-line heap/governor/resilience state for OOM errors."""
        lines = [
            "== simulated heap report ==",
            (
                f"H1: {self.heap.used()}/{self.heap.capacity} B used "
                f"({self.heap.used() / self.heap.capacity:.0%})"
            ),
        ]
        if self.h2 is not None:
            lines.append(
                f"H2: {self.h2.used_bytes()}/{self.h2.config.h2_size} B used, "
                f"{len(self.h2.regions)} regions"
            )
        if self.governor is not None:
            lines.append(f"governor: {self.governor.describe()}")
        if self.health is not None:
            lines.append(f"devices: {self.health.describe()}")
        if self.resilience is not None:
            lines.append(
                f"resilience: failures={self.resilience.failures} "
                f"degraded={self.resilience.degraded}"
            )
        lines.append(
            f"backpressure: alloc_stalls={self.alloc_stalls} "
            f"emergency_gcs={self.emergency_gcs}"
        )
        return "\n".join(lines)

    def allocate_array(
        self,
        count: int,
        element_size: int,
        refs_per_element: int = 0,
        name: str = "",
    ) -> List[HeapObject]:
        """Bulk-allocate ``count`` plain objects (no references)."""
        return [
            self.allocate(element_size, name=f"{name}[{i}]" if name else "")
            for i in range(count)
        ]

    def allocate_temp(self, nbytes: int) -> None:
        """Spray short-lived temporaries (S/D byte-stream buffers).

        The objects are never rooted, so they die at the next scavenge —
        their only effect is the young-generation pressure the paper
        attributes to S/D (Section 2).
        """
        remaining = nbytes
        while remaining > 0:
            chunk = min(TEMP_CHUNK, max(remaining, 16))
            obj = HeapObject(chunk, name="sd-temp", store=self.store)
            self.clock.charge(self.cost.alloc_cost, Bucket.OTHER)
            if not self.heap.try_allocate(obj):
                self.minor_gc()
                if not self.heap.try_allocate(obj):
                    self.major_gc()
                    if not self.heap.try_allocate(
                        obj
                    ) and not self._emergency_backpressure(obj):
                        self.oom = True
                        message = "temporary allocation failed"
                        context = self._degradation_context()
                        if context:
                            message = f"{message} ({context})"
                        raise OutOfMemoryError(
                            message,
                            requested=chunk,
                            context=context,
                            heap_report=self.diagnostic_heap_report(),
                        )
            remaining -= chunk

    # ==================================================================
    # Mutator object access
    # ==================================================================
    def write_ref(
        self,
        src: HeapObject,
        target: Optional[HeapObject],
        remove: Optional[HeapObject] = None,
    ) -> None:
        """``src.field = target`` with post-write barrier semantics."""
        if src.space is SpaceId.FREED:
            raise SegmentationFault(
                f"write to reclaimed object #{src.oid}"
            )
        if remove is not None:
            try:
                src.refs.remove(remove)
            except ValueError:
                pass
        if target is not None:
            src.refs.append(target)
        if src.space is SpaceId.H2 and self.h2 is not None:
            # Mutator update of a device-resident object: the store goes
            # through the mapping (read-modify-write on a faulted page).
            self.h2.mutator_store(src)
        self.barrier.on_reference_store(src, target)

    def clear_refs(self, src: HeapObject) -> None:
        """Drop all outgoing references of ``src``."""
        src.refs = []

    def read_object(
        self,
        obj: HeapObject,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> None:
        """A mutator reads an object's contents."""
        if obj.space is SpaceId.FREED:
            raise SegmentationFault(f"read of reclaimed object #{obj.oid}")
        if obj.space is SpaceId.H2 and self.h2 is not None:
            self.h2.mutator_load(obj, pattern)
            return
        if self.config.collector == "memmode" and self.old_gen_device is not None:
            # Memory mode: every heap access goes through the DRAM/NVM blend.
            self.old_gen_device.read(obj.size, pattern)
            return
        # DRAM-resident object (or NVM under Panthera's old gen).
        if (
            self.config.collector == "panthera"
            and self.old_gen_device is not None
            and obj.space is SpaceId.OLD
        ):
            from .gc.panthera import PantheraCollector

            collector = self.collector
            if isinstance(collector, PantheraCollector) and collector.on_nvm(
                obj
            ):
                self.old_gen_device.read(obj.size, pattern)
                return
        self.clock.charge(
            self.cost.dram_latency + obj.size / self.cost.dram_read_bw
        )

    def read_objects(
        self,
        objs: Iterable[HeapObject],
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
    ) -> None:
        """A mutator reads several objects in order (e.g. one partition).

        Same charges, in the same order, as one :meth:`read_object` per
        object: each run of consecutive H2-resident objects faults
        through the mapping as one batch, and every other object goes
        through :meth:`read_object`.
        """
        h2 = self.h2
        if h2 is None:
            for obj in objs:
                self.read_object(obj, pattern)
            return
        batch: List[HeapObject] = []
        for obj in objs:
            if obj.in_h2:
                batch.append(obj)
                continue
            if batch:
                h2.mutator_load_many(batch, pattern)
                batch = []
            self.read_object(obj, pattern)
        if batch:
            h2.mutator_load_many(batch, pattern)

    def compute(self, operations: int, parallel: bool = True) -> None:
        """Charge pure mutator work for ``operations`` record operations."""
        seconds = operations * self.cost.mutator_op_cost
        if parallel:
            seconds /= max(1.0, self.config.mutator_threads ** 0.9)
        self.clock.charge(seconds, Bucket.OTHER)

    # ==================================================================
    # TeraHeap hint interface (exported via Unsafe in the real JVM)
    # ==================================================================
    def h2_tag_root(self, obj: HeapObject, label: str) -> None:
        self.hints.h2_tag_root(obj, label)

    def h2_move(self, label: str) -> None:
        self.hints.h2_move(label)

    # ==================================================================
    # GC entry points
    # ==================================================================
    def minor_gc(self) -> None:
        kind = "minor"
        try:
            self.collector.minor_gc()
        except PromotionFailure:
            self.collector.major_gc()
            kind = "major"
        self._post_gc_audit(kind)

    def major_gc(self) -> None:
        self.collector.major_gc()
        self._post_gc_audit("major")

    def _post_gc_audit(self, kind: str) -> None:
        """Verify heap invariants after a completed GC cycle (if enabled)."""
        if self.auditor is not None:
            self.auditor.audit(kind, self.collector.mark_epoch)

    # ==================================================================
    # Crash recovery
    # ==================================================================
    def retire(self) -> None:
        """Tear down a dead VM so nothing of it leaks into a successor.

        A crashed executor's volatile state must not poison the restarted
        incarnation: registered pressure handlers (which close over the
        dead block manager), device-health listeners (which would keep
        feeding the dead governor), and the governor's own circuit state
        all die here.  The successor VM builds every one of these fresh —
        zero health observations, a CLOSED circuit, zero alloc-stall
        counters — which :meth:`~repro.frameworks.spark.context.SparkContext.restart`
        relies on.  Idempotent.

        Everything dropped here is scoped to *this* VM: on a shared
        health monitor only this VM's listeners detach (sibling tenants'
        governors keep theirs), and only this VM's policy/auditor leave
        the global registries — their counters folded into the aggregate
        so the CLI's end-of-run summary still tells the whole story.
        """
        self.retired = True
        self.pressure_handlers.clear()
        if self.health is not None:
            if self._owns_health:
                self.health.detach_listeners()
            else:
                self.health.detach_listeners(owner=self)
        if self._registered_policy and self.resilience is not None:
            unregister_policy(self.resilience)
            self._registered_policy = False
        if self._registered_auditor and self.auditor is not None:
            unregister_auditor(self.auditor)
            self._registered_auditor = False

    def recover_h2(self, image):
        """Recover a crashed process's durable H2 image into this VM.

        Must be called on a freshly built VM (the crash destroyed all
        volatile state; this VM *is* the restarted process).  Rebuilds
        the H2 metadata from the image via
        :meth:`~repro.teraheap.h2_heap.H2Heap.recover`, then re-primes
        the root set: one H1 anchor object per recovered label holds
        references to every rehydrated object of that label, so the
        next major GC re-establishes region liveness exactly as the
        workload's own roots would have.  Returns the
        :class:`~repro.teraheap.recovery.RecoveryReport`.
        """
        if self.h2 is None:
            raise ConfigError("recover_h2() requires TeraHeap enabled")
        report = self.h2.recover(image)
        by_label: Dict[str, List[HeapObject]] = {}
        for index in sorted(report.recovered):
            region = self.h2.regions[index]
            for obj in region.objects:
                by_label.setdefault(region.label or "", []).append(obj)
        for label in sorted(by_label):
            members = by_label[label]
            anchor = self.allocate(
                max(16, 8 * len(members)), name=f"h2-anchor:{label}"
            )
            # Installed directly, not via write_ref: the anchor stands in
            # for the crashed process's roots, and recovery must not
            # charge the mutator-store barrier path for it.
            anchor.refs = list(members)
            self.roots.add(anchor)
            self.h2_recovery_anchors[label] = anchor
        return report

    # ==================================================================
    # Reporting
    # ==================================================================
    def breakdown(self):
        return self.clock.breakdown()

    def elapsed(self) -> float:
        return self.clock.now
