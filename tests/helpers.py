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
