"""Shared test helpers."""

import csv
import io
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro import JavaVM, OutOfMemoryError, TeraHeapConfig, VMConfig, gb
from repro.clock import Bucket
from repro.devices.base import AccessPattern
from repro.devices.durability import DurableImage
from repro.devices.health import DeviceState, HealthTransition
from repro.devices.mmap import BASE_PAGE
from repro.faults.events import (
    AdoptionEvent,
    CrashEvent,
    DegradationEvent,
    FaultEvent,
    RecoveryEvent,
    RestartEvent,
    RetryEvent,
)
from repro.gc.g1 import G1Heap
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.store import SPACE_FREED
from repro.teraheap.governor import CircuitState, CircuitTransition
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


def live_rows(store) -> np.ndarray:
    """Row 0 and every row that is not FREED, ascending.

    A store compaction keeps exactly these rows, and a kept row's new
    oid is its position here: its rank.
    """
    rest = np.flatnonzero(store.space_view()[1:] != SPACE_FREED) + 1
    return np.concatenate(([0], rest))


def rank_map(store) -> np.ndarray:
    """Oid -> rank among :func:`live_rows`; a FREED row maps to 0."""
    keep = live_rows(store)
    ranks = np.zeros(len(store), dtype=np.int64)
    ranks[keep] = np.arange(keep.size)
    return ranks


def ranked(store, oids) -> list:
    """``oids`` as ranks (:func:`rank_map`)."""
    return rank_map(store)[np.asarray(oids, dtype=np.int64)].tolist()


def ranked_column(store, column: str, dtype=None) -> bytes:
    """The live rows of array column ``column`` in rank order, as bytes
    (widened to ``dtype`` first if given)."""
    values = np.asarray(getattr(store, column), dtype=dtype)
    return values[live_rows(store)].tobytes()


def ranked_list(store, column: str) -> list:
    """The live rows of list column ``column`` in rank order."""
    values = getattr(store, column)
    return [values[oid] for oid in live_rows(store).tolist()]


def ranked_refs(store) -> list:
    """The live rows' reference targets in rank order, as ranks.

    A store compaction keeps these equal, so a golden hashing them pins
    the same value whether or not (and however often) the store was
    compacted.
    """
    ranks = rank_map(store).tolist()
    return [
        [ranks[t] for t in store.refs[oid]]
        for oid in live_rows(store).tolist()
    ]


_ARRAY_COLUMNS = (
    "size", "space", "address", "age", "region_id", "mark_epoch",
    "forward_space", "scan_factor", "flags",
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
            (r.state, r.top, r.oid_array().tolist()) for r in heap.regions
        ]
    else:
        state["spaces"] = [
            (s.name, s.top, s.oid_array().tolist()) for s in heap.spaces()
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
    region.allocate(obj.oid)
    obj.space = SpaceId.H2
    obj.region_id = region.index
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
                log.record(
                    CrashEvent(
                        collector.clock.now,
                        "major_compact",
                        f"batch {seq} of {len(batch)} objects",
                    )
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


# ----------------------------------------------------------------------
# Reference exporters: the resilience log and the CSV/Chrome-trace
# exporters as they stood before the log became one event stream, kept
# verbatim.  tests/test_exporters.py compares today's exporters with
# these byte for byte.
# ----------------------------------------------------------------------


def reference_streaming_blocks_csv(result) -> str:
    """CSV of a streaming action's per-block records.

    ``result`` is a
    :class:`~repro.frameworks.spark.streaming.StreamResult`; one row per
    dispatched block with its admission stalls and final fate
    (consumed / persisted / spilled-h2 / spilled-ser), plus a trailing
    ``totals`` row carrying the run-wide streaming counters.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["partition", "block", "chunks", "bytes", "admit_stalls", "fate"]
    )
    for row in result.block_rows:
        writer.writerow(
            [
                row["partition"],
                row["block"],
                row["chunks"],
                row["bytes"],
                row["admit_stalls"],
                row["fate"],
            ]
        )
    writer.writerow(
        [
            "totals",
            result.blocks,
            result.peak_inflight_bytes,
            result.spill_bytes,
            result.backpressure_stalls,
            f"spills={result.spills} unspills={result.unspills} "
            f"forced={result.forced_admissions} "
            f"stall_s={result.stall_seconds:.6f} "
            f"hidden_s={result.hidden_seconds:.6f}",
        ]
    )
    return out.getvalue()


def reference_server_tenants_csv(report) -> str:
    """CSV of a server box run: one row per co-located tenant.

    ``report`` is a :class:`~repro.server.box.BoxReport`; a trailing
    ``box`` row carries the aggregate (makespan, throughput, device
    saturation, fairness gap, arbitration epochs).
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "tenant",
            "dataset_bytes",
            "processed_bytes",
            "finish_s",
            "velocity_bps",
            "progress_rate",
            "gc_s",
            "stall_s",
            "alloc_stalls",
            "pauses",
            "p99_pause_s",
            "h2_moved_bytes",
            "cache_hit_ratio",
            "device_read",
            "device_written",
        ]
    )
    for t in report.tenants:
        writer.writerow(
            [
                t.name,
                t.dataset_bytes,
                t.processed_bytes,
                f"{t.finish_time:.6f}",
                f"{t.velocity:.3f}",
                f"{t.progress_rate:.6f}",
                f"{t.gc_seconds:.6f}",
                f"{t.stall_seconds:.6f}",
                t.alloc_stalls,
                t.pauses,
                f"{t.p99_pause:.6f}",
                t.h2_moved_bytes,
                f"{t.cache_hit_ratio:.4f}",
                t.device_read,
                t.device_written,
            ]
        )
    writer.writerow(
        [
            "box",
            report.spec_tenants,
            "arbiter" if report.arbiter else "static",
            f"{report.makespan:.6f}",
            f"{report.aggregate_throughput:.3f}",
            f"{report.fairness_gap:.6f}",
            f"{report.device_busy_fraction:.6f}",
            f"epochs={report.epochs}",
            "",
            "",
            "",
            "",
            "",
            "",
            "",
        ]
    )
    return out.getvalue()


def reference_resilience_events_csv(log) -> str:
    """CSV of a :class:`ReferenceResilienceLog`'s timeline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time_s", "event", "op_or_device", "kind", "detail"])
    for event in log.faults:
        writer.writerow(
            [f"{event.time:.6f}", "fault", event.device, event.kind, event.detail]
        )
    for event in log.retries:
        kind = "success" if event.success else "exhausted"
        if not event.success and event.reason:
            kind = f"exhausted:{event.reason}"
        writer.writerow(
            [
                f"{event.time:.6f}",
                "retry",
                event.op,
                kind,
                f"attempts={event.attempts} backoff={event.delay:.6f}",
            ]
        )
    for event in log.health:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "health",
                event.device,
                f"{event.old}->{event.new}",
                event.reason,
            ]
        )
    for event in log.circuit:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "circuit",
                "h2-governor",
                f"{event.old}->{event.new}",
                event.reason,
            ]
        )
    for event in log.degradations:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "degradation",
                "h2",
                f"failures={event.failures}",
                event.reason,
            ]
        )
    for event in log.crashes:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "crash",
                "process",
                event.safepoint,
                event.detail,
            ]
        )
    for event in log.recoveries:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "recovery",
                "h2",
                f"recovered={event.recovered} quarantined={event.quarantined}",
                event.detail,
            ]
        )
    for event in log.restarts:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "restart",
                "executor",
                f"incarnation={event.incarnation}",
                event.detail,
            ]
        )
    for event in log.adoptions:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "adoption",
                event.label,
                event.outcome,
                event.detail,
            ]
        )
    return out.getvalue()


def reference_chrome_trace_events(engine: Any) -> List[Dict[str, Any]]:
    """The engine's task events plus thread-naming metadata events.

    ``engine`` is a :class:`~repro.gc.engine.GCTaskEngine`; its
    ``trace_events`` list is empty unless tracing was enabled in
    ``VMConfig.engine``.
    """
    events: List[Dict[str, Any]] = []
    workers = getattr(engine, "workers", 0)
    name = getattr(engine, "name", "gc")
    events.append(
        {
            "args": {"name": f"{name} engine"},
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
        }
    )
    for tid in range(workers):
        events.append(
            {
                "args": {"name": f"{name} worker {tid}"},
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
            }
        )
    events.extend(engine.trace_events)
    return events


def _reference_instant(
    time: float, name: str, args: Dict[str, Any]
) -> Dict[str, Any]:
    """One global-scope instant event at simulated ``time`` seconds."""
    return {
        "args": args,
        "name": name,
        "ph": "i",
        "pid": 1,
        "s": "g",
        "tid": 0,
        "ts": round(time * 1e6, 3),
    }


def reference_resilience_trace_events(log: Any) -> List[Dict[str, Any]]:
    """A :class:`ReferenceResilienceLog` as instant events.

    Faults, retries, health/circuit transitions, degradations,
    crashes, recoveries, executor restarts and block adoptions render
    as global instant markers ("ph": "i",
    scope "g"), so fault activity lines up against the GC task lanes on
    the same timeline.
    """
    events: List[Dict[str, Any]] = []
    if log is None:
        return events
    for ev in log.faults:
        events.append(
            _reference_instant(
                ev.time,
                f"fault:{ev.kind}",
                {"device": ev.device, "op": ev.op, "detail": ev.detail},
            )
        )
    for ev in log.retries:
        events.append(
            _reference_instant(
                ev.time,
                "retry",
                {
                    "op": ev.op,
                    "attempts": ev.attempts,
                    "delay_s": ev.delay,
                    "success": ev.success,
                },
            )
        )
    for ev in log.health:
        events.append(
            _reference_instant(
                ev.time,
                f"health:{ev.new}",
                {"device": ev.device, "from": ev.old, "reason": ev.reason},
            )
        )
    for ev in log.circuit:
        events.append(
            _reference_instant(
                ev.time,
                f"circuit:{ev.new}",
                {"from": ev.old, "reason": ev.reason},
            )
        )
    for ev in log.degradations:
        events.append(
            _reference_instant(
                ev.time,
                "degradation",
                {"reason": ev.reason, "failures": ev.failures},
            )
        )
    for ev in log.crashes:
        events.append(
            _reference_instant(ev.time, f"crash:{ev.safepoint}", {"detail": ev.detail})
        )
    for ev in log.recoveries:
        events.append(
            _reference_instant(
                ev.time,
                "recovery",
                {
                    "recovered": ev.recovered,
                    "quarantined": ev.quarantined,
                    "detail": ev.detail,
                },
            )
        )
    for ev in log.restarts:
        events.append(
            _reference_instant(
                ev.time,
                "restart",
                {"incarnation": ev.incarnation, "detail": ev.detail},
            )
        )
    for ev in log.adoptions:
        events.append(
            _reference_instant(
                ev.time,
                f"adoption:{ev.outcome}",
                {"label": ev.label, "detail": ev.detail},
            )
        )
    events.sort(key=lambda e: e["ts"])
    return events


def reference_streaming_counter_events(result: Any) -> List[Dict[str, Any]]:
    """A streaming run's in-flight budget telemetry as counter events.

    ``result`` is a
    :class:`~repro.frameworks.spark.streaming.StreamResult`; every
    in-flight transition sampled during the run renders as a Chrome
    counter event ("ph": "C"), so the bounded in-flight byte series —
    and the spill/stall activity that bounded it — plots as a stacked
    counter track against the GC lanes.
    """
    events: List[Dict[str, Any]] = []
    if result is None:
        return events
    for time, inflight, spilled, stalls in result.counter_samples:
        events.append(
            {
                "args": {
                    "inflight_bytes": inflight,
                    "spilled_bytes": spilled,
                    "stalls": stalls,
                },
                "name": "stream_inflight",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": round(time * 1e6, 3),
            }
        )
    return events


def reference_server_trace_events(box: Any) -> List[Dict[str, Any]]:
    """A server box run as per-tenant timeline lanes.

    ``box`` is a :class:`~repro.server.box.ServerBox` after
    :meth:`~repro.server.box.ServerBox.run`.  Each tenant renders as its
    own process (pid = tenant index + 2, pid 1 stays reserved for the
    single-VM engine layout): complete ("X") events for every GC pause,
    instant markers for recorded clock events (alloc stalls, restarts),
    all shifted by the tenant's ``base_time`` so lanes share the box
    timeline.  The arbiters contribute counter tracks on pid 1: each
    epoch's per-tenant bandwidth share and H2 byte budget.
    """
    events: List[Dict[str, Any]] = []
    for tenant in box.tenants:
        pid = tenant.index + 2
        events.append(
            {
                "args": {"name": f"tenant {tenant.name}"},
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
            }
        )
        for cycle in tenant.vm.collector.stats.cycles:
            events.append(
                {
                    "args": {
                        "reclaimed": cycle.reclaimed_bytes,
                        "to_h2": cycle.moved_to_h2_bytes,
                    },
                    "cat": "gc",
                    "dur": round(cycle.duration * 1e6, 3),
                    "name": cycle.kind,
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": round(
                        (tenant.base_time + cycle.start_time) * 1e6, 3
                    ),
                }
            )
        for time, name, duration in tenant.vm.clock.events:
            events.append(
                {
                    "args": {"duration_s": round(duration, 9)},
                    "name": name,
                    "ph": "i",
                    "pid": pid,
                    "s": "p",
                    "tid": 0,
                    "ts": round((tenant.base_time + time) * 1e6, 3),
                }
            )
    events.append(
        {
            "args": {"name": "box arbiters"},
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
        }
    )
    for record in box.pressure.records:
        events.append(
            {
                "args": {
                    name: round(share, 6)
                    for name, share in sorted(record.shares.items())
                },
                "name": "bw_share",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": round(record.time * 1e6, 3),
            }
        )
        events.append(
            {
                "args": dict(sorted(record.h2_budgets.items())),
                "name": "h2_budget",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": round(record.time * 1e6, 3),
            }
        )
    return events


def reference_server_chrome_trace_json(box: Any, label: str = "serverscale") -> str:
    """Serialize a finished server box as a Chrome Trace document."""
    report = box._report()
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "tenants": box.spec.tenants,
            "arbiter": box.spec.arbiter,
            "epochs": report.epochs,
            "makespan": round(report.makespan, 9),
            "aggregateThroughput": round(report.aggregate_throughput, 3),
            "deviceBusyFraction": round(report.device_busy_fraction, 6),
            "fairnessGap": round(report.fairness_gap, 6),
        },
        "traceEvents": reference_server_trace_events(box),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def reference_chrome_trace_json(
    engine: Any, label: str = "run", resilience: Any = None,
    streaming: Any = None,
) -> str:
    """Serialize an engine's schedule as a Chrome Trace Event document.

    ``resilience`` optionally adds a VM's :class:`ReferenceResilienceLog` as
    instant markers on the same timeline; ``streaming`` adds a
    :class:`~repro.frameworks.spark.streaming.StreamResult`'s in-flight
    counter track.
    """
    events = reference_chrome_trace_events(engine)
    events.extend(reference_resilience_trace_events(resilience))
    events.extend(reference_streaming_counter_events(streaming))
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "workers": getattr(engine, "workers", 0),
            "phases": getattr(engine, "total_phases", 0),
            "tasks": getattr(engine, "total_tasks", 0),
            "steals": getattr(engine, "total_steals", 0),
            # Concurrent-phase critical-path seconds hidden behind the
            # mutator (never charged to any pause).
            "concurrentHidden": round(
                getattr(engine, "total_hidden_seconds", 0.0), 9
            ),
            # Per-phase attribution: one record per engine phase run, in
            # execution order (tasks/steals/idle/imbalance per phase).
            "phaseStats": list(getattr(engine, "phase_log", [])),
        },
        "traceEvents": events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@dataclass
class ReferenceHealthEvent:
    """A device-health state transition (HEALTHY/DEGRADED/BROWNOUT)."""

    time: float
    device: str
    old: str
    new: str
    reason: str = ""


@dataclass
class ReferenceCircuitEvent:
    """An H2 governor circuit transition (CLOSED/DEGRADED/OPEN)."""

    time: float
    old: str
    new: str
    reason: str = ""


class ReferenceResilienceLog:
    """Accumulates fault/retry/degradation events for one VM."""

    def __init__(self) -> None:
        self.faults: List[FaultEvent] = []
        self.retries: List[RetryEvent] = []
        self.degradations: List[DegradationEvent] = []
        self.crashes: List[CrashEvent] = []
        self.recoveries: List[RecoveryEvent] = []
        self.restarts: List[RestartEvent] = []
        self.adoptions: List[AdoptionEvent] = []
        self.health: List[ReferenceHealthEvent] = []
        self.circuit: List[ReferenceCircuitEvent] = []

    # ------------------------------------------------------------------
    def record_fault(
        self, time: float, device: str, op: str, kind: str, detail: str = ""
    ) -> None:
        self.faults.append(FaultEvent(time, device, op, kind, detail))

    def record_retry(
        self,
        time: float,
        op: str,
        attempts: int,
        delay: float,
        success: bool,
        reason: str = "",
    ) -> None:
        self.retries.append(
            RetryEvent(time, op, attempts, delay, success, reason)
        )

    def record_health(
        self, time: float, device: str, old: str, new: str, reason: str = ""
    ) -> None:
        self.health.append(ReferenceHealthEvent(time, device, old, new, reason))

    def record_circuit(
        self, time: float, old: str, new: str, reason: str = ""
    ) -> None:
        self.circuit.append(ReferenceCircuitEvent(time, old, new, reason))

    def record_degradation(
        self, time: float, reason: str, failures: int
    ) -> None:
        self.degradations.append(DegradationEvent(time, reason, failures))

    def record_crash(
        self, time: float, safepoint: str, detail: str = ""
    ) -> None:
        self.crashes.append(CrashEvent(time, safepoint, detail))

    def record_recovery(
        self, time: float, recovered: int, quarantined: int, detail: str = ""
    ) -> None:
        self.recoveries.append(
            RecoveryEvent(time, recovered, quarantined, detail)
        )

    def record_restart(
        self, time: float, incarnation: int, detail: str = ""
    ) -> None:
        self.restarts.append(RestartEvent(time, incarnation, detail))

    def record_adoption(
        self, time: float, label: str, outcome: str, detail: str = ""
    ) -> None:
        self.adoptions.append(AdoptionEvent(time, label, outcome, detail))

    def absorb(self, other: "ReferenceResilienceLog") -> None:
        """Prepend a predecessor incarnation's history onto this log.

        A successor VM starts with an empty log; absorbing the crashed
        VM's log keeps the incident record (the crash event itself, any
        faults and retries that led up to it) continuous across the
        restart, so reports and traces tell the whole story.
        """
        for attr in (
            "faults",
            "retries",
            "degradations",
            "crashes",
            "recoveries",
            "restarts",
            "adoptions",
            "health",
            "circuit",
        ):
            mine: List = getattr(self, attr)
            mine[:0] = getattr(other, attr)

    # ------------------------------------------------------------------
    @property
    def faults_seen(self) -> int:
        return len(self.faults)

    @property
    def ops_retried(self) -> int:
        return sum(1 for r in self.retries if r.success)

    @property
    def retry_exhaustions(self) -> int:
        return sum(1 for r in self.retries if not r.success)

    @property
    def degraded_count(self) -> int:
        return len(self.degradations)

    @property
    def crash_count(self) -> int:
        return len(self.crashes)

    @property
    def recovery_count(self) -> int:
        return len(self.recoveries)

    @property
    def restart_count(self) -> int:
        return len(self.restarts)

    def adoption_count(self, outcome: str) -> int:
        return sum(1 for a in self.adoptions if a.outcome == outcome)

    @property
    def regions_recovered(self) -> int:
        return sum(r.recovered for r in self.recoveries)

    @property
    def regions_quarantined(self) -> int:
        return sum(r.quarantined for r in self.recoveries)

    @property
    def health_transitions(self) -> int:
        return len(self.health)

    @property
    def circuit_transitions(self) -> int:
        return len(self.circuit)

    def summary(self) -> Dict[str, float]:
        """Flat counters, ready to merge into an experiment result."""
        return {
            "faults_seen": float(self.faults_seen),
            "ops_retried": float(self.ops_retried),
            "retry_exhaustions": float(self.retry_exhaustions),
            "degradations": float(self.degraded_count),
            "backoff_seconds": sum(r.delay for r in self.retries),
            "crashes": float(self.crash_count),
            "recoveries": float(self.recovery_count),
            "restarts": float(self.restart_count),
            "regions_recovered": float(self.regions_recovered),
            "regions_quarantined": float(self.regions_quarantined),
            "blocks_adopted": float(self.adoption_count("adopted")),
            "blocks_quarantined": float(self.adoption_count("quarantined")),
            "blocks_lost": float(self.adoption_count("lost")),
            "blocks_recomputed": float(self.adoption_count("recomputed")),
            "health_transitions": float(self.health_transitions),
            "circuit_transitions": float(self.circuit_transitions),
        }



#: the reference log's per-kind lists, in its CSV order, by record_* name
REFERENCE_KINDS = {
    "fault": "faults",
    "retry": "retries",
    "health": "health",
    "circuit": "circuit",
    "degradation": "degradations",
    "crash": "crashes",
    "recovery": "recoveries",
    "restart": "restarts",
    "adoption": "adoptions",
}


#: each kind's event class; health and circuit transitions take their
#: states as enums
EVENT_CLASSES = {
    "fault": FaultEvent,
    "retry": RetryEvent,
    "health": HealthTransition,
    "circuit": CircuitTransition,
    "degradation": DegradationEvent,
    "crash": CrashEvent,
    "recovery": RecoveryEvent,
    "restart": RestartEvent,
    "adoption": AdoptionEvent,
}


def record_event(log, kind, fields):
    """Record one ``kind`` event (a ``REFERENCE_KINDS`` key) with the
    positional ``fields`` of the reference log's ``record_<kind>``."""
    if kind == "health":
        time, device, old, new, reason = fields
        fields = (time, device, DeviceState(old), DeviceState(new), reason)
    elif kind == "circuit":
        time, old, new, reason = fields
        fields = (time, CircuitState(old), CircuitState(new), reason)
    log.record(EVENT_CLASSES[kind](*fields))


def legacy_view(log) -> ReferenceResilienceLog:
    """``log``'s events as the reference log holds them."""
    view = ReferenceResilienceLog()
    for kind, attr in REFERENCE_KINDS.items():
        events = log.of(EVENT_CLASSES[kind])
        if kind == "health":
            events = [
                ReferenceHealthEvent(
                    e.time, e.device, e.old.value, e.new.value, e.reason
                )
                for e in events
            ]
        elif kind == "circuit":
            events = [
                ReferenceCircuitEvent(
                    e.time, e.old.value, e.new.value, e.reason
                )
                for e in events
            ]
        setattr(view, attr, events)
    return view


class ReferencePageCache:
    """The page cache's LRU rules kept one ``OrderedDict`` entry per page
    (page -> dirty flag, oldest first), as the cache held them before it
    moved to page-indexed columns.

    :meth:`access_many` is one :meth:`access` per span and
    :meth:`write_through` one insert per page.  There is no fault plan:
    a batch write lands whole or raises before it lands.
    """

    def __init__(self, device, capacity: int, page_size: int = 4096):
        self.device = device
        self.page_size = page_size
        self.max_pages = capacity // page_size
        self.pages: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        self.durable_image = DurableImage(page_size)

    def __len__(self) -> int:
        return len(self.pages)

    def __contains__(self, page: int) -> bool:
        return page in self.pages

    def lru(self):
        return list(self.pages.items())

    @staticmethod
    def _runs(pages) -> int:
        breaks = sum(1 for a, b in zip(pages, pages[1:]) if b != a + 1)
        return breaks + 1

    def _evict_over_limit(self) -> None:
        while len(self.pages) > self.max_pages:
            page, dirty = self.pages.popitem(last=False)
            self.evictions += 1
            if dirty:
                self.writebacks += 1
                self.device.write(self.page_size, AccessPattern.RANDOM)
                self.durable_image.commit((page,))

    def _write_batch(self, pages, runs: int) -> None:
        self.device.write(len(pages) * self.page_size, requests=runs)
        self.durable_image.commit(pages)

    def access(self, pages, write=False, pattern=AccessPattern.SEQUENTIAL):
        hits = 0
        miss_pages = []
        for page in pages:
            if page in self.pages:
                hits += 1
                self.pages.move_to_end(page)
                if write:
                    self.pages[page] = True
            else:
                miss_pages.append(page)
        if miss_pages:
            self.device.read(
                len(miss_pages) * self.page_size,
                pattern,
                requests=self._runs(miss_pages),
            )
            for page in miss_pages:
                self.pages[page] = write
                self._evict_over_limit()
        self.hits += hits
        self.misses += len(miss_pages)
        return hits, len(miss_pages)

    def access_many(self, firsts, stops, pattern=AccessPattern.SEQUENTIAL):
        hits = misses = 0
        for first, stop in zip(firsts, stops):
            span_hits, span_misses = self.access(
                range(first, stop), False, pattern
            )
            hits += span_hits
            misses += span_misses
        return hits, misses

    def write_through(self, pages, safepoint: str = "h2_write") -> int:
        pages = list(pages)
        if not pages:
            return 0
        self._write_batch(pages, self._runs(pages))
        for page in pages:
            self.pages[page] = False
            self.pages.move_to_end(page)
            self._evict_over_limit()
        return len(pages)

    def invalidate(self, pages) -> None:
        for page in pages:
            self.pages.pop(page, None)

    def flush(self, safepoint: str = "writeback") -> int:
        dirty = [page for page, flag in self.pages.items() if flag]
        if dirty:
            self._write_batch(dirty, self._runs(sorted(dirty)))
            for page in dirty:
                self.pages[page] = False
            self.writebacks += len(dirty)
        return len(dirty)

    def resize(self, capacity: int) -> int:
        self.max_pages = capacity // self.page_size
        self._evict_over_limit()
        return self.max_pages
