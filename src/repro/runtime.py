"""The simulated JVM: the public API frameworks program against.

``JavaVM`` wires together the managed heap (H1), the configured collector,
the optional TeraHeap second heap (H2) over a storage device, the write
barriers, and the simulated clock.  Frameworks allocate objects, update
references and read objects exclusively through this facade, so every
cost — allocation, barriers, GC, S/D, device I/O — is accounted.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence

from .clock import Bucket, Clock
from .config import VMConfig
from .devices.base import AccessPattern, Device
from .devices.health import DeviceHealthMonitor
from .devices.nvme import NVMeSSD
from .errors import ConfigError, OutOfMemoryError, SegmentationFault
from .faults.policy import ResiliencePolicy
from .faults.session import RunSession
from .heap.audit import HeapAuditor, make_auditor
from .heap.store import (
    FLAG_SERIALIZABLE,
    MIN_OBJECT_SIZE,
    SPACE_H2,
    SPACE_OLD,
    HeapStore,
    check_object_size,
)
from .gc.parallel_scavenge import (
    ParallelScavenge,
    ParallelScavengeJDK11,
    PromotionFailure,
)
from .heap.barriers import WriteBarrier
from .heap.heap import ManagedHeap
from .heap.object_model import HeapObject, SpaceId
from .heap.roots import RootSet, StackFrame
from .serdes.serializer import KryoSerializer
from .teraheap.h2_heap import H2Heap
from .teraheap.hints import HintInterface
from .units import KiB

#: granularity of temporary-object allocation bursts (S/D pressure)
TEMP_CHUNK = 8 * KiB
#: simulated seconds one allocation-stall round parks the mutator
ALLOC_STALL_WAIT = 2e-3
#: shed/stall/GC rounds before declaring true exhaustion (OOM)
MAX_EMERGENCY_ROUNDS = 6


class JavaVM:
    """One simulated JVM instance."""

    def __init__(
        self,
        config: VMConfig,
        h2_device: Optional[Device] = None,
        old_gen_device: Optional[Device] = None,
        health: Optional[DeviceHealthMonitor] = None,
        session: Optional[RunSession] = None,
    ):
        self.config = config
        self.cost = config.cost
        self.clock = Clock()
        #: the struct-of-arrays store all of this VM's objects live in
        self.store = HeapStore()
        #: the run's fault/audit defaults for whatever ``config`` leaves
        #: unset; it counts the policy and auditor those defaults arm
        self.session = session
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

            self.heap = G1Heap(config, self.store)
            self.collector = G1Collector(
                self.heap, self.roots, self.clock, config, self.store
            )
            self.barrier = G1WriteBarrier(
                self.collector, self.clock, self.cost
            )
        else:
            self.heap = ManagedHeap(config, self.store)
            if config.teraheap.enabled:
                h2_device = self._on_clock(h2_device, NVMeSSD)
                fault_cfg = config.faults
                if fault_cfg is None and session is not None:
                    fault_cfg = session.faults
                if fault_cfg is not None:
                    self.resilience = ResiliencePolicy(fault_cfg, self.clock)
                    if config.faults is None:
                        session.track_policy(self.resilience)
                gov_cfg = config.governor
                if gov_cfg is not None:
                    from .teraheap.governor import H2Governor

                    if health is not None:
                        # Shared monitor (co-located tenants watching one
                        # physical device): one EWMA set, one HEALTHY/
                        # DEGRADED/BROWNOUT classification every tenant's
                        # governor consults — not N divergent copies.
                        self.health = health
                        self._owns_health = False
                    else:
                        self.health = DeviceHealthMonitor(self.clock)
                    # The fault injectors feed the monitor and its
                    # transitions go into the fault log.  A VM with no
                    # fault plan has neither: its clean ops could only
                    # hold the monitor at HEALTHY.
                    log = None
                    if self.resilience is not None:
                        log = self.resilience.log
                        self.health.add_listener(log.record, owner=self)
                        self.resilience.monitor = self.health
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
                    self.store,
                    self.h2,
                    self.hints,
                    governor=self.governor,
                )
            elif config.collector == "panthera":
                from .gc.panthera import (
                    PRETENURE_THRESHOLD,
                    PantheraCollector,
                )

                old_gen_device = self._on_clock(old_gen_device)
                self.old_gen_device = old_gen_device
                self.collector = PantheraCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    self.store,
                    nvm=old_gen_device,
                )
                if config.panthera is not None:
                    self.heap.pretenure_threshold = PRETENURE_THRESHOLD
            elif config.collector == "memmode":
                from .devices.nvm import NVMMemoryMode
                from .gc.memory_mode import MemoryModeCollector

                old_gen_device = self._on_clock(old_gen_device, NVMMemoryMode)
                self.old_gen_device = old_gen_device
                self.collector = MemoryModeCollector(
                    self.heap,
                    self.roots,
                    self.clock,
                    config,
                    self.store,
                    device=old_gen_device,
                )
            elif config.collector == "ps11":
                self.collector = ParallelScavengeJDK11(
                    self.heap, self.roots, self.clock, config, self.store
                )
            else:
                self.collector = ParallelScavenge(
                    self.heap, self.roots, self.clock, config, self.store
                )
            self.barrier = WriteBarrier(
                self.heap,
                self.clock,
                self.cost,
                h2_card_table=self.h2.card_table if self.h2 else None,
                enable_teraheap=config.teraheap.enabled,
            )

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
            or (session.audit if session is not None else None)
        )
        if audit_level:
            self.auditor = make_auditor(self, audit_level)
            if (
                self.auditor is not None
                and config.audit is None
                and session is not None
            ):
                session.track_auditor(self.auditor)

    def _on_clock(self, device: Optional[Device], default=None):
        """``device`` charging this VM's clock; ``default(clock)`` (or
        None) when the caller gave no device.

        A caller's device on another clock is rebound on a copy:
        mutating the original would silently redirect the charges (and
        traffic counters) of any other VM still using it.
        """
        if device is None:
            return default(self.clock) if default is not None else None
        if device.clock is not self.clock:
            return device.rebind(self.clock)
        return device

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
        return self._place(obj)

    def _place(self, obj: HeapObject, oom_message: str = "") -> HeapObject:
        """Charge and place one fresh object, collecting as needed.

        The slow path escalates from scavenge to full GC to emergency
        backpressure; past that it raises OOM with ``oom_message``
        (default: "cannot allocate <size> B after full GC").
        """
        self.clock.charge(self.cost.alloc_cost, Bucket.OTHER)
        if self.heap.try_allocate(obj):
            return obj
        self.minor_gc()
        if self.heap.try_allocate(obj):
            return obj
        self.major_gc()
        if self.heap.try_allocate(obj):
            return obj
        if self._emergency_backpressure(obj):
            return obj
        self.oom = True
        size = obj.size
        message = oom_message or f"cannot allocate {size} B after full GC"
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
        if not self.in_emergency():
            return 0
        return self._stall_round(max(nbytes, int(0.05 * self.heap.capacity)))

    def in_emergency(self) -> bool:
        """Whether the governor reports an emergency (circuit OPEN and
        H1 past the watermark)."""
        capacity = self.heap.capacity
        return (
            self.governor is not None
            and capacity > 0
            and self.governor.emergency_active(self.heap.used() / capacity)
        )

    def _stall_round(self, target: int) -> int:
        """One allocation-stall round: park the allocating thread
        (``Bucket.ALLOC_STALL``) while the pressure handlers shed up to
        ``target`` bytes each; returns the bytes they freed."""
        self.alloc_stalls += 1
        self.clock.charge(ALLOC_STALL_WAIT, Bucket.ALLOC_STALL)
        self.clock.record_event("alloc_stall", ALLOC_STALL_WAIT)
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
        if not self.in_emergency():
            return False
        target = max(obj.size, int(0.05 * self.heap.capacity))
        for _ in range(MAX_EMERGENCY_ROUNDS):
            freed = self._stall_round(target)
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
        name: str = "",
        names: Optional[Sequence[str]] = None,
        frame: Optional[StackFrame] = None,
    ) -> List[HeapObject]:
        """Allocate ``count`` plain ``element_size``-byte objects (no
        references), named ``name[i]`` or by the sequence ``names``:
        :meth:`allocate_many` with one size."""
        if names is None:
            if name:
                names = [f"{name}[{i}]" for i in range(count)]
            else:
                names = [""] * count
        return self.allocate_many([element_size] * count, names, frame)

    def allocate_many(
        self,
        sizes: Sequence[int],
        names: Sequence[str],
        frame: Optional[StackFrame] = None,
        into: Optional[HeapObject] = None,
        oom_message: str = "",
        scan_factor: float = 1.0,
    ) -> List[HeapObject]:
        """Allocate one plain object (no references) per entry of
        ``sizes``, named by ``names``: the run allocator.

        Same oids, names, addresses, charges and GC points as one
        :meth:`allocate` per element.  Each stretch that fits in eden is
        created, charged and bump-placed in one pass; it ends at the
        first element that does not fit or that goes to the old
        generation, and that element takes :meth:`allocate`'s slow path.
        Elements are pushed on ``frame`` as they are placed, so a
        collection later in the run keeps them.

        ``into`` also stores every element into ``into`` as it is placed,
        which equals :meth:`write_ref` ``(into, obj)`` after each
        allocation: a stretch charges allocation and barrier by turns and
        applies the barrier's card mark once.  While ``into`` is
        H2-resident or freed, and on G1, each element takes the slow path
        and its own :meth:`write_ref`.

        Every element is created with ``scan_factor``.  Only GC scans of
        reachable rows read it, and no element is reachable before it is
        placed, so this equals setting it on each element after its
        :meth:`allocate`.
        """
        objs: List[HeapObject] = []
        self._allocate_runs(
            sizes, names, frame, into, oom_message, scan_factor, objs
        )
        return objs

    def _allocate_runs(
        self,
        sizes: Sequence[int],
        names: Sequence[str],
        frame: Optional[StackFrame],
        into: Optional[HeapObject],
        oom_message: str,
        scan_factor: float,
        objs: Optional[List[HeapObject]],
    ) -> None:
        """:meth:`allocate_many`'s body; appends the handles to ``objs``.

        With ``objs=None`` (no ``frame`` either) the rows of each eden
        stretch get no handle at all, since no caller would hold one.
        """
        count = len(sizes)
        if len(names) != count:
            raise ValueError(f"{len(names)} names for {count} elements")
        if count:
            check_object_size(min(sizes))
        heap, store, clock = self.heap, self.store, self.clock
        barrier = self.barrier
        batch_into = into is not None and isinstance(barrier, WriteBarrier)
        alloc_cost = self.cost.alloc_cost
        done = 0
        while done < count:
            fit = 0
            if into is None or (batch_into and into.in_h1):
                fit = heap.eden_room(sizes, done)
            if fit:
                end = done + fit
                run_sizes = sizes[done:end]
                run_names = names[done:end]
                if objs is None:
                    run = ()
                    first = store.new_rows(
                        run_sizes, run_names, FLAG_SERIALIZABLE, scan_factor
                    )
                else:
                    run = store.new_objects(
                        run_sizes, run_names, FLAG_SERIALIZABLE, scan_factor
                    )
                    first = run[0].oid
                if into is None:
                    clock.charge_repeated(alloc_cost, fit, Bucket.OTHER)
                else:
                    # per element: the allocation charge, then the barrier's
                    charges = (
                        (alloc_cost, Bucket.OTHER),
                        (barrier.store_cost, None),
                    )
                    clock.charge_cycle(charges, fit)
                heap.allocate_run(first, run_sizes)
                if into is not None:
                    store.writable_refs(into.oid).extend(
                        range(first, first + fit)
                    )
                    store.edge_version += fit
                    barrier.on_reference_stores(into, fit)
                done = end
            else:
                obj = HeapObject(
                    sizes[done],
                    name=names[done],
                    scan_factor=scan_factor,
                    store=store,
                )
                run = [self._place(obj, oom_message)]
                if into is not None:
                    self.write_ref(into, obj)
                done += 1
            if frame is not None:
                frame.push_all(run)
            if objs is not None:
                objs.extend(run)

    def allocate_temp(self, nbytes: int) -> None:
        """Spray short-lived temporaries (S/D byte-stream buffers).

        ``nbytes`` is cut into ``TEMP_CHUNK``-byte objects plus a tail
        of at least 16 B.  The objects are never rooted, so they die at
        the next scavenge — their only effect is the young-generation
        pressure the paper attributes to S/D (Section 2).
        """
        if nbytes <= 0:
            return
        full, tail = divmod(nbytes, TEMP_CHUNK)
        message = "temporary allocation failed"
        sizes = [TEMP_CHUNK] * full
        if tail:
            sizes.append(max(tail, MIN_OBJECT_SIZE))
        self._allocate_runs(
            sizes, ["sd-temp"] * len(sizes), None, None, message, 1.0, None
        )

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
        if src.space is SpaceId.FREED:
            raise SegmentationFault(f"write to reclaimed object #{src.oid}")
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
        through the mapping as one batch, and each run of consecutive
        DRAM objects is charged in one clock call.  Freed objects, and
        every object on a memory-mode or Panthera heap (whose old
        generation may sit on NVM), go through :meth:`read_object`.
        """
        if self.config.collector in ("memmode", "panthera"):
            for obj in objs:
                self.read_object(obj, pattern)
            return
        h2 = self.h2
        latency, bandwidth = self.cost.dram_latency, self.cost.dram_read_bw
        dram: List[float] = []
        batch: List[HeapObject] = []
        for obj in objs:
            store, oid = obj._store, obj.oid
            code = store.space[oid]
            if code <= SPACE_OLD:
                if batch:
                    h2.mutator_load_many(batch, pattern)
                    batch = []
                dram.append(latency + store.size[oid] / bandwidth)
                continue
            if dram:
                self.clock.charge_each(dram)
                dram = []
            if code == SPACE_H2 and h2 is not None:
                batch.append(obj)
                continue
            if batch:
                h2.mutator_load_many(batch, pattern)
                batch = []
            self.read_object(obj, pattern)
        if dram:
            self.clock.charge_each(dram)
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
        governors keep theirs).  A session that counts this VM's policy
        and auditor keeps their counters.
        """
        self.retired = True
        self.pressure_handlers.clear()
        if self.health is not None:
            if self._owns_health:
                self.health.detach_listeners()
            else:
                self.health.detach_listeners(owner=self)

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
        # Handles, not oids: an anchor's allocation may collect and so
        # renumber the store before a later label's anchor is installed.
        by_label: Dict[str, List[HeapObject]] = {}
        for index in sorted(report.recovered):
            region = self.h2.regions[index]
            by_label.setdefault(region.label or "", []).extend(
                map(self.store.handle, region.oid_array().tolist())
            )
        for label in sorted(by_label):
            members = by_label[label]
            anchor = self.allocate(
                max(16, 8 * len(members)), name=f"h2-anchor:{label}"
            )
            # Installed directly, not via write_ref: the anchor stands in
            # for the crashed process's roots, and recovery must not
            # charge the mutator-store barrier path for it.
            self.store.refs[anchor.oid] = [m.oid for m in members] or ()
            self.store.edge_version += 1
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
