"""Shared test helpers."""

from repro import JavaVM, OutOfMemoryError, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.config import G1Config
from repro.devices.mmap import BASE_PAGE
from repro.gc.g1 import G1Heap
from repro.heap.object_model import HeapObject
from repro.units import KiB


def make_group(vm, count=20, size=2048, name="grp"):
    """Allocate a root key-object with ``count`` children, pinned as a root."""
    with vm.roots.frame() as frame:
        children = [
            frame.push(vm.allocate(size, name=f"{name}-{i}"))
            for i in range(count)
        ]
        root = vm.allocate(
            max(64, 8 * count), refs=children, name=f"{name}-root"
        )
    vm.roots.add(root)
    return root, children


#: heap of :func:`make_vm`'s VMs
SMALL_HEAP = 768 * KiB
#: the Panthera-style pretenuring cut of the "pretenure" VM
PRETENURE = 4 * KiB


def make_vm(kind: str) -> JavaVM:
    """A small VM (``ps``, ``pretenure``, ``g1`` or ``teraheap``): a few
    dozen KiB-sized objects fill eden."""
    config = VMConfig(
        heap_size=SMALL_HEAP, collector="g1" if kind == "g1" else "ps"
    )
    if kind == "g1":
        config.g1 = G1Config(region_size=32 * KiB)
    if kind == "teraheap":
        config.teraheap = TeraHeapConfig(
            enabled=True, h2_size=gb(1), region_size=16 * KiB
        )
        config.page_cache_size = 4 * BASE_PAGE
    vm = JavaVM(config)
    if kind == "pretenure":
        vm.heap.pretenure_threshold = PRETENURE
    return vm


def reference_place(vm, obj, message):
    """The single-object allocation path as a plain loop would run it."""
    vm.clock.charge(vm.cost.alloc_cost, Bucket.OTHER)
    if vm.heap.try_allocate(obj):
        return obj
    vm.minor_gc()
    if vm.heap.try_allocate(obj):
        return obj
    vm.major_gc()
    if vm.heap.try_allocate(obj):
        return obj
    if vm._emergency_backpressure(obj):
        return obj
    vm.oom = True
    raise OutOfMemoryError(message)


def reference_many(vm, sizes, names, frame=None):
    """``vm.allocate_many(sizes, names, frame)`` as a per-object loop."""
    objs = []
    for size, name in zip(sizes, names):
        obj = HeapObject(size, name=name, store=vm.store)
        reference_place(vm, obj, f"cannot allocate {size} B after full GC")
        if frame is not None:
            frame.push(obj)
        objs.append(obj)
    return objs


_ARRAY_COLUMNS = (
    "size", "space", "address", "age", "region_id", "mark_epoch",
    "forward_address", "forward_space", "scan_factor", "flags",
)


def vm_state(vm) -> dict:
    """Everything a run of allocations can touch, floats as exact hex."""
    store, heap, clock = vm.store, vm.heap, vm.clock
    state = {c: getattr(store, c).tobytes() for c in _ARRAY_COLUMNS}
    state.update(
        label=list(store.label),
        name=list(store.name),
        refs=[list(r) for r in store.refs],
        edge_version=store.edge_version,
        allocated=(heap.allocated_objects, heap.allocated_bytes),
        totals={k: v.hex() for k, v in clock.breakdown().items()},
        subs={k: v.hex() for k, v in clock.sub_breakdown().items()},
        events=[(t.hex(), n, d.hex()) for t, n, d in clock.events],
        gcs=(vm.collector.stats.minor_count, vm.collector.stats.major_count),
        oom=vm.oom,
        roots=vm.roots.oids(),
    )
    if isinstance(heap, G1Heap):
        state["regions"] = [
            (r.state, r.top, [o.oid for o in r.objects]) for r in heap.regions
        ]
    else:
        state["spaces"] = [
            (s.name, s.top, [o.oid for o in s.objects]) for s in heap.spaces()
        ]
    return state


def log_charges(clock) -> dict:
    """Record every charge ``clock`` takes, per bucket, in order.

    Bucket totals can come out equal even when a batch adds its charges
    in another order; the log cannot.
    """
    log = {}
    charge, charge_each, charge_cycle = (
        clock.charge, clock.charge_each, clock.charge_cycle
    )

    def entries(bucket):
        return log.setdefault((bucket or clock.current).value, [])

    def logged_charge(seconds, bucket=None):
        entries(bucket).append(seconds)
        charge(seconds, bucket)

    def logged_charge_each(seconds, bucket=None):
        entries(bucket).extend(seconds)
        charge_each(seconds, bucket)

    def logged_charge_cycle(charges, n):
        for _ in range(n):
            for seconds, bucket in charges:
                entries(bucket).append(seconds)
        charge_cycle(charges, n)

    clock.charge = logged_charge
    clock.charge_each = logged_charge_each
    clock.charge_cycle = logged_charge_cycle
    return log


# ---------------------------------------------------------------------
# TeraHeap major-GC placement and promotion, one object at a time: the
# reference the column paths are checked against.
# ---------------------------------------------------------------------
def reference_assign_address(h2, obj, label, epoch):
    """Place one object in its label's open region (new region if none
    has room); size-aware placement sends objects of a quarter region
    or more to a ``:large`` label."""
    config = h2.config
    if obj.size > config.region_size:
        raise OutOfMemoryError(
            f"object of {obj.size} B exceeds H2 region size "
            f"{config.region_size} B",
            requested=obj.size,
        )
    if config.size_aware_placement and obj.size >= config.region_size // 4:
        label = f"{label}:large"
    index = h2._open_by_label.get(label)
    region = h2.regions.get(index) if index is not None else None
    if region is None or region.label != label or not region.has_room(
        obj.size
    ):
        region = h2._new_region(label, epoch)
        h2._open_by_label[label] = region.index
    region.allocate(obj)
    obj.label = label
    h2.objects_moved += 1
    h2.bytes_moved += obj.size
    return region


class ReferencePromotion:
    """Promotion buffers holding their staged objects, flushed one
    region at a time: install as ``h2.promotion``."""

    def __init__(self, mapping, buffer_capacity):
        self.mapping = mapping
        self.buffer_capacity = buffer_capacity
        self._buffers = {}
        self.objects_written = 0
        self.bytes_written = 0
        self.direct_writes = 0

    def write_object(self, obj, region_index):
        from repro.teraheap.promotion import DIRECT_WRITE_THRESHOLD

        if obj.size >= DIRECT_WRITE_THRESHOLD:
            self.mapping.write_explicit(obj.address, obj.size)
            self.objects_written += 1
            self.bytes_written += obj.size
            self.direct_writes += 1
            return
        buffer = self._buffers.setdefault(region_index, [])
        if sum(o.size for o in buffer) + obj.size > self.buffer_capacity:
            self._flush(buffer)
        buffer.append(obj)

    @staticmethod
    def _span(buffer):
        if not buffer:
            return None
        lo = min(o.address for o in buffer)
        hi = max(o.end_address() for o in buffer)
        return (lo, hi - lo)

    def _commit(self, buffer):
        self.objects_written += len(buffer)
        self.bytes_written += sum(o.size for o in buffer)
        buffer.clear()

    def _flush(self, buffer):
        span = self._span(buffer)
        if span is not None:
            self.mapping.write_explicit(*span, safepoint="promotion_flush")
            self._commit(buffer)

    def flush_all(self):
        pending = [b for b in self._buffers.values() if b]
        if pending:
            self.mapping.write_explicit_many(
                [self._span(b) for b in pending], safepoint="h2_flush"
            )
        for buffer in pending:
            self._commit(buffer)
        self._buffers.clear()


def reference_assign_h2_addresses(collector, movers, epoch):
    """Place ``(object, label)`` movers one by one; returns the placed
    ones.  A device-full denial skips its mover; with a governor, or for
    a byte-budget denial, it skips the cycle's remaining movers too."""
    from repro.errors import DeviceFullError

    h2 = collector.h2
    res = h2.resilience
    placed = []
    denied = 0
    abort = False
    for obj, label in movers:
        if abort or (res is not None and res.degraded):
            denied += 1
            continue
        try:
            reference_assign_address(h2, obj, label, epoch)
        except DeviceFullError as exc:
            denied += 1
            if collector.governor is not None:
                abort = True
            if getattr(exc, "budget_denial", False):
                abort = True
                continue
            if res is not None:
                res.note_failure("h2_assign_address", exc)
                continue
            raise
        obj.h2_candidate = False
        placed.append((obj, label))
    collector.h2_transfers_denied += denied
    collector._cycle_denied = denied
    collector._cycle_placed_bytes = sum(o.size for o, _ in placed)
    return placed


def reference_compact_movers(collector, movers):
    """Write placed movers batch by batch, each object its own I/O
    retry unit, then drain the buffers; an armed crash plan is
    consulted before every copy batch."""
    from repro.errors import SimulatedCrash

    h2 = collector.h2
    res = h2.resilience
    plan = res.plan if res is not None else None
    for seq, batch in enumerate(collector.mover_copy_batches(movers)):
        if plan is not None and plan.crash_outcome("major_compact"):
            log = h2.page_cache.resilience_log
            if log is not None:
                log.record_crash(
                    collector.clock.now,
                    "major_compact",
                    f"batch {seq} of {len(batch)} objects",
                )
            raise SimulatedCrash(
                "simulated kill mid major-GC compaction "
                f"(copy batch {seq})",
                safepoint="major_compact",
                op_index=plan.op_index,
            )
        for obj, _ in batch:
            h2._io(
                "h2_write_object",
                lambda: h2.promotion.write_object(obj, obj.region_id),
            )
    h2.finish_compaction()


def reference_fence(collector, targets):
    """Fence forward references edge by edge: a reclaimed target
    faults, every other one counts and marks its region live."""
    from repro.errors import SegmentationFault
    from repro.heap.object_model import SpaceId

    for oid in targets:
        target = collector.store.handle(oid)
        if target.space is SpaceId.FREED:
            raise SegmentationFault(
                "live H1 object references reclaimed H2 object "
                f"#{target.oid}"
            )
        collector.forward_refs_fenced += 1
        if target.region_id >= 0:
            collector.h2.mark_region_live(target.region_id)
