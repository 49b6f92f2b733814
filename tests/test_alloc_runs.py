"""The S/D allocation path: a pinned Spark LR-on-Spark-SD digest.

Linear regression on Spark-SD caches its training set serialized off
heap.  Every epoch deserializes each cached partition back onto the
heap (one object per chunk) and sprays serialization temporaries into
eden, so the job is dominated by runs of equal-size allocations.  It is
sized so those runs cross both scavenges and full collections.  The
digest covers every simulated quantity the allocation path influences:
clock buckets and sub-buckets, GC counts, device traffic, the count of
objects ever allocated, and the name, size, address and space of every
object not yet freed, in oid order (a store compaction moves none of
them).

The rest of the file holds the run allocator (``JavaVM.allocate_array``
and ``allocate_temp``) to the per-object reference loops in
``helpers.py``: after every run, the store columns, heap spaces,
allocation counters, clock totals and GC counts must be bit-identical.
"""

import hashlib
from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    PRETENURE,
    make_vm,
    ranked_column,
    ranked_list,
    reference_many,
    reference_place,
    vm_state,
)
from repro import JavaVM, OutOfMemoryError, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.gc.parallel_scavenge import PromotionFailure
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.store import MIN_OBJECT_SIZE
from repro.runtime import TEMP_CHUNK
from repro.units import KiB

#: digest of :func:`lr_summary` for the pinned LR job below
GOLDEN_SD_LR_DIGEST = "2e7b7354cfc58dc9"


def run_sd_lr():
    """Run the pinned LR job on Spark-SD; return the VM and context."""
    vm = JavaVM(
        VMConfig(
            heap_size=gb(16),
            collector="ps",
            mutator_threads=8,
            page_cache_size=gb(2),
            young_fraction=1.0 / 3.0,
        ),
    )
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.SD, offheap_device=NVMeSSD(vm.clock)
        ),
    )
    SPARK_WORKLOADS["LR"](ctx, gb(24), scale=0.2)
    return vm, ctx


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def lr_summary(vm, ctx) -> str:
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(vm.breakdown().items())]
    subs = vm.clock.sub_breakdown()
    lines += [f"sub.{k}={v!r}" for k, v in sorted(subs.items())]
    traffic = ctx.conf.offheap_device.traffic
    stats = vm.collector.stats
    store = vm.store
    lines += [
        f"offheap.bytes_read={traffic.bytes_read!r}",
        f"offheap.bytes_written={traffic.bytes_written!r}",
        f"offheap.read_ops={traffic.read_ops!r}",
        f"offheap.write_ops={traffic.write_ops!r}",
        f"minor_count={stats.minor_count!r}",
        f"major_count={stats.major_count!r}",
        f"deserializations={ctx.block_manager.deserializations!r}",
        f"allocated_objects={vm.heap.allocated_objects!r}",
        f"allocated_bytes={vm.heap.allocated_bytes!r}",
        f"objects={store.object_count!r}",
        f"names={_sha(ranked_list(store, 'name'))}",
        f"sizes={_sha(ranked_column(store, 'size'))}",
        f"addresses={_sha(ranked_column(store, 'address'))}",
        f"spaces={_sha(ranked_column(store, 'space'))}",
    ]
    return "\n".join(lines)


def test_sd_lr_golden_digest():
    vm, ctx = run_sd_lr()
    stats = vm.collector.stats
    # The job exercises both collections and the read-back path.
    assert stats.minor_count > 0
    assert stats.major_count > 0
    assert ctx.block_manager.deserializations > 0
    summary = lr_summary(vm, ctx)
    assert _sha(summary) == GOLDEN_SD_LR_DIGEST, summary


# ---------------------------------------------------------------------
# The run allocator == a per-object allocation loop
# ---------------------------------------------------------------------
VM_KINDS = ("ps", "pretenure", "g1")


def reference_array(vm, count, size, name, frame=None):
    names = [f"{name}[{i}]" for i in range(count)]
    return reference_many(vm, [size] * count, names, frame)


def run_array(vm, count, size, name, frame=None):
    """The run allocator, called like :func:`reference_array`."""
    return vm.allocate_array(count, size, name=name, frame=frame)


def reference_temp(vm, nbytes):
    remaining = nbytes
    while remaining > 0:
        chunk = min(TEMP_CHUNK, max(remaining, 16))
        obj = HeapObject(chunk, name="sd-temp", store=vm.store)
        reference_place(vm, obj, "temporary allocation failed")
        remaining -= chunk


def apply(vm, frames, op, runs: bool):
    """Apply one generated op, by runs or by the reference loop.

    Returns the OOM message, or None."""
    kind, count, size, nbytes, in_sub = op
    try:
        with vm.clock.sub_context("phase") if in_sub else nullcontext():
            if kind == "drop":
                if frames:
                    vm.roots.close_frame(frames.pop(0))
            elif kind == "temp":
                if runs:
                    vm.allocate_temp(nbytes)
                else:
                    reference_temp(vm, nbytes)
            else:
                frame = None
                if kind == "rooted":
                    frame = vm.roots.open_frame()
                    frames.append(frame)
                array = run_array if runs else reference_array
                array(vm, count, size, "a", frame)
    except OutOfMemoryError as exc:
        return str(exc)
    return None


OPS = st.tuples(
    st.sampled_from(("array", "rooted", "temp", "drop")),
    st.integers(0, 48),
    st.sampled_from((16, 24, 1000, 4 * KiB, 6 * KiB, 20 * KiB, 120 * KiB)),
    st.integers(0, 160 * KiB),
    st.booleans(),
)


@pytest.mark.parametrize("kind", VM_KINDS)
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(OPS, max_size=12))
def test_runs_match_per_object_loop(kind, ops):
    vm, ref = make_vm(kind), make_vm(kind)
    frames, ref_frames = [], []
    for op in ops:
        oom = apply(vm, frames, op, runs=True)
        ref_oom = apply(ref, ref_frames, op, runs=False)
        assert oom == ref_oom
        assert vm_state(vm) == vm_state(ref)
        if oom is not None:
            break


def run_both(kind, fn, ref_fn):
    vm, ref = make_vm(kind), make_vm(kind)
    result, ref_result = fn(vm), ref_fn(ref)
    assert vm_state(vm) == vm_state(ref)
    return vm, result, ref_result


@pytest.mark.parametrize("kind", VM_KINDS)
def test_run_crosses_minor_and_major_gc(kind):
    def fill(vm, array):
        # Promote one rooted batch, drop it, then root a second one: the
        # old generation fills with garbage and a full GC must run.
        for batch in ("dropped", "kept"):
            frame = vm.roots.open_frame()
            kept = [array(vm, 40, 4 * KiB, batch, frame) for _ in range(3)]
            if batch == "dropped":
                vm.roots.close_frame(frame)
        with vm.clock.sub_context("burst"):
            array(vm, 80, 4 * KiB, "burst")
        return kept

    vm, kept, _ = run_both(
        kind,
        lambda vm: fill(vm, run_array),
        lambda vm: fill(vm, reference_array),
    )
    stats = vm.collector.stats
    assert stats.minor_count > 0
    if kind != "g1":  # G1 reclaims this garbage without a full GC
        assert stats.major_count > 0
    assert vm.clock.sub_total("burst") > 0
    # Every frame-rooted element survived the collections in its run.
    live = set(vm.heap.all_oids().tolist()) if kind != "g1" else {
        oid for r in vm.heap.regions for oid in r.oid_array().tolist()
    }
    assert all(o.oid in live for run in kept for o in run)


def test_pretenured_elements_bypass_eden():
    vm, objs, _ = run_both(
        "pretenure",
        lambda vm: vm.allocate_array(5, PRETENURE, name="big"),
        lambda vm: reference_array(vm, 5, PRETENURE, "big"),
    )
    assert all(o.space is SpaceId.OLD for o in objs)
    assert len(vm.heap.eden) == 0


def test_names_sequence():
    vm = make_vm("ps")
    objs = vm.allocate_array(3, 64, names=["x", "y", "z"])
    assert [o.name for o in objs] == ["x", "y", "z"]
    assert [o.oid for o in objs] == [1, 2, 3]
    with pytest.raises(ValueError, match="2 names for 3 elements"):
        vm.allocate_array(3, 64, names=["x", "y"])


@pytest.mark.parametrize("kind", VM_KINDS)
def test_temp_oom_keeps_its_message(kind):
    def exhaust(vm, array, temp):
        frame = vm.roots.open_frame()
        with pytest.raises(OutOfMemoryError, match="cannot allocate 4096 B"):
            array(vm, 400, 4 * KiB, "pinned", frame)
        with pytest.raises(OutOfMemoryError) as info:
            for _ in range(100):
                temp(vm, 64 * KiB)
        return str(info.value)

    vm, message, ref_message = run_both(
        kind,
        lambda vm: exhaust(vm, run_array, JavaVM.allocate_temp),
        lambda vm: exhaust(vm, reference_array, reference_temp),
    )
    assert message == ref_message == "temporary allocation failed"
    assert vm.oom


@pytest.mark.parametrize("kind", VM_KINDS)
def test_size_below_minimum_rejected(kind):
    vm = make_vm(kind)
    before = vm_state(vm)
    with pytest.raises(ValueError, match="below minimum"):
        vm.allocate_array(3, MIN_OBJECT_SIZE - 1)
    assert vm_state(vm) == before
    assert vm.allocate_array(0, 8) == []


def reference_chunks(vm, sizes, names, frame, scan_factor):
    """Allocate, then set the scan factor, per element: the chunk loop
    Spark partitions and streaming blocks were built with."""
    chunks = []
    for size, name in zip(sizes, names):
        chunk = vm.allocate(size, name=name)
        chunk.scan_factor = scan_factor
        chunks.append(frame.push(chunk))
    return chunks


def run_chunks(vm, sizes, names, frame, scan_factor):
    """The run allocator, called like :func:`reference_chunks`."""
    return vm.allocate_many(sizes, names, frame, scan_factor=scan_factor)


@pytest.mark.parametrize("kind", VM_KINDS)
def test_scan_factor_runs_match_allocate_then_set(kind):
    """Runs with a scan factor across scavenges, pretenured elements and
    a promotion failure that escalates to a full GC, on PS and G1."""

    def fill(vm, chunks):
        failures = []
        if kind != "g1":
            scavenge = vm.collector.minor_gc

            def minor_gc():
                try:
                    scavenge()
                except PromotionFailure:
                    failures.append(vm.collector.stats.minor_count)
                    raise

            vm.collector.minor_gc = minor_gc
        frames = []
        for step in range(12):
            frame = vm.roots.open_frame()
            frames.append(frame)
            sizes = [
                PRETENURE + 512 if i % 7 == 3 else (i % 4 + 1) * KiB
                for i in range(24)
            ]
            names = [f"s{step}-c{i}" for i in range(24)]
            chunks(vm, sizes, names, frame, 0.25 + step)
            if len(frames) > 5:
                vm.roots.close_frame(frames.pop(0))
        return failures

    vm, failures, ref_failures = run_both(
        kind,
        lambda vm: fill(vm, run_chunks),
        lambda vm: fill(vm, reference_chunks),
    )
    assert failures == ref_failures
    assert vm.collector.stats.minor_count > 0
    if kind != "g1":
        assert failures, "no scavenge escalated to a full GC"
    if kind == "pretenure":
        assert any(
            o.space is SpaceId.OLD and o.size > PRETENURE
            for o in map(vm.store.handle, vm.heap.old.oid_array().tolist())
        )
