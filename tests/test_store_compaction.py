"""Store compaction: dropping FREED rows changes no simulated value.

At the end of a Parallel Scavenge collection (PS, PS11, TeraHeap,
Panthera and memory mode), once the store's FREED rows reach
``STORE_COMPACT_RATIO`` times its live rows, ``HeapStore.compact`` slides
the live rows down in oid order and the collector renumbers every extent.
The oracle runs each seeded program twice, once as the program runs and
once with the compaction switched off, and requires every simulated
value to match: clock buckets, sub-buckets and events as exact hex, GC
counts, H2 bytes moved, device traffic, the allocation count and the
store's live rows by rank (what ``helpers`` hashes for the goldens).

The rest holds the pieces a compaction must keep: a handle freed before
it still faults once another row takes its old number, a ``RefList``
kept across it names the same targets, and G1, whose young trace visits
its remembered set in oid-value order, never compacts.
"""

import random

import pytest

from helpers import (
    _ARRAY_COLUMNS,
    ranked,
    ranked_column,
    ranked_list,
    ranked_refs,
)
from repro import JavaVM, SegmentationFault, TeraHeapConfig, VMConfig, gb
from repro.clock import Clock
from repro.config import PantheraConfig
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.frameworks.giraph import CDLPProgram
from repro.gc.parallel_scavenge import STORE_COMPACT_RATIO, ParallelScavenge
from repro.heap.object_model import SpaceId
from repro.heap.store import HeapStore
from repro.units import KiB, MiB
from test_alloc_runs import run_sd_lr
from test_giraph_ooc_stretch import build_job

def churn_vm(collector: str) -> JavaVM:
    """A 1 MiB VM of ``collector``; ``teraheap`` is PS with an H2."""
    if collector == "teraheap":
        return JavaVM(
            VMConfig(
                heap_size=MiB,
                collector="ps",
                teraheap=TeraHeapConfig(
                    enabled=True, h2_size=gb(1), region_size=16 * KiB
                ),
                page_cache_size=256 * KiB,
            ),
            h2_device=NVMeSSD(Clock()),
        )
    if collector == "panthera":
        return JavaVM(
            VMConfig(
                heap_size=MiB,
                collector="panthera",
                panthera=PantheraConfig(dram_old_size=128 * KiB),
                page_cache_size=MiB,
            ),
            old_gen_device=NVM(Clock()),
        )
    return JavaVM(
        VMConfig(heap_size=MiB, collector=collector, page_cache_size=MiB)
    )


def run_churn(collector: str, seed: int = 7, steps: int = 4000) -> JavaVM:
    """Seeded churn: most objects die young, a bounded set of rooted
    holders gains children, old holders are dropped, and on TeraHeap
    holders are tagged and moved to H2."""
    vm = churn_vm(collector)
    rng = random.Random(seed)
    holders = []
    labels = 0
    for i in range(steps):
        obj = vm.allocate(rng.choice([64, 256, 1024, 4096]), name=f"o{i % 5}")
        draw = rng.random()
        if draw < 0.04:
            vm.roots.add(obj)
            holders.append(obj)
            if len(holders) > 12:
                vm.roots.remove(holders.pop(0))
        elif draw < 0.15 and holders:
            vm.write_ref(rng.choice(holders), obj)
        if collector == "teraheap" and i % 150 == 149 and holders:
            key = rng.choice(holders)
            if key.in_h1 and key.label is None:
                labels += 1
                vm.h2_tag_root(key, f"g{labels}")
                vm.h2_move(f"g{labels}")
        if i % 700 == 699:
            vm.major_gc()
    return vm


def run_ooc_cdlp() -> JavaVM:
    vm, job = build_job()
    job.load_graph()
    job.run(CDLPProgram(job.graph))
    return vm


def run_spark_sd_lr() -> JavaVM:
    return run_sd_lr()[0]


PROGRAMS = {
    "ps": lambda: run_churn("ps"),
    "ps11": lambda: run_churn("ps11"),
    "teraheap": lambda: run_churn("teraheap"),
    "panthera": lambda: run_churn("panthera"),
    "memmode": lambda: run_churn("memmode"),
    "giraph-ooc-cdlp": run_ooc_cdlp,
    "spark-sd-lr": run_spark_sd_lr,
}


def state(vm) -> dict:
    """Every simulated value the oracle compares, store rows by rank."""
    store, clock, stats = vm.store, vm.clock, vm.collector.stats
    devices = [vm.old_gen_device]
    if vm.h2 is not None:
        devices.append(vm.h2.device)
    out = {
        "buckets": {k: v.hex() for k, v in clock.breakdown().items()},
        "subs": {k: v.hex() for k, v in clock.sub_breakdown().items()},
        "events": [(t.hex(), n, d.hex()) for t, n, d in clock.events],
        "gcs": (stats.minor_count, stats.major_count),
        "h2_bytes_moved": vm.h2.bytes_moved if vm.h2 is not None else 0,
        "traffic": [
            (t.bytes_read, t.bytes_written, t.read_ops, t.write_ops)
            for t in (d.traffic for d in devices if d is not None)
        ],
        "objects": store.object_count,
        "refs": ranked_refs(store),
        "labels": ranked_list(store, "label"),
        "names": ranked_list(store, "name"),
        "roots": ranked(store, vm.roots.oids()),
        "spaces": [
            (s.name, s.top, ranked(store, s.oid_array()))
            for s in vm.heap.spaces()
        ],
        "edge_version": store.edge_version,
    }
    out.update((c, ranked_column(store, c)) for c in _ARRAY_COLUMNS)
    if vm.h2 is not None:
        out["regions"] = [
            (index, r.top, r.label, ranked(store, r.oid_array()))
            for index, r in sorted(vm.h2.regions.items())
        ]
    return out


@pytest.fixture
def count_compactions(monkeypatch):
    """Count every store compaction the test runs."""
    counter = [0]
    compact = HeapStore.compact

    def counting(store):
        counter[0] += 1
        return compact(store)

    monkeypatch.setattr(HeapStore, "compact", counting)
    return counter


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_compaction_changes_no_simulated_value(
    program, monkeypatch, count_compactions
):
    compacted = PROGRAMS[program]()
    assert count_compactions[0] > 0
    if program == "teraheap":
        assert compacted.h2.bytes_moved > 0
        assert compacted.h2.regions_reclaimed > 0
    with monkeypatch.context() as patch:
        patch.setattr(ParallelScavenge, "compact_store", lambda self: None)
        kept = PROGRAMS[program]()
    assert len(compacted.store) < len(kept.store)
    assert state(compacted) == state(kept)


def test_a_handle_freed_before_a_compaction_still_faults():
    vm = churn_vm("ps")
    doomed = vm.allocate(64, name="doomed")
    old_oid = doomed.oid
    vm.minor_gc()
    assert doomed.space is SpaceId.FREED
    assert doomed.oid == 0
    # The dead row is gone, so the next row takes its old number.
    assert len(vm.store) == 1
    fresh = vm.allocate(64, name="fresh")
    vm.roots.add(fresh)
    assert fresh.oid == old_oid
    with pytest.raises(SegmentationFault):
        vm.read_object(doomed)
    with pytest.raises(SegmentationFault):
        vm.write_ref(doomed, fresh)
    assert fresh.space is SpaceId.EDEN
    assert vm.store.refs[fresh.oid] == ()


def test_a_lookup_of_a_freed_row_hands_back_a_row_0_handle():
    vm = churn_vm("ps")
    vm.roots.add(vm.allocate(64, name="kept"))
    oid = vm.allocate(64, name="doomed").oid
    vm.minor_gc()
    # One FREED row against one live one: below the ratio, so it stays.
    assert vm.store.space[oid] == vm.store.space[0]
    handle = vm.store.handle(oid)
    assert handle.oid == 0
    assert handle.space is SpaceId.FREED
    assert vm.store.handles[oid] is None


def test_a_reflist_kept_across_a_compaction_names_the_same_targets():
    vm = churn_vm("ps")
    vm.allocate(64, name="garbage")
    holder = vm.roots.add(vm.allocate(64, name="holder"))
    for i in range(40):
        vm.allocate(64, name="garbage")
        if i % 8 == 0:
            vm.write_ref(holder, vm.allocate(64, name=f"target-{i}"))
    refs = holder.refs
    targets = list(refs)
    before = holder.oid
    vm.minor_gc()
    assert holder.oid < before
    assert list(refs) == targets
    assert [t.name for t in refs] == [f"target-{i}" for i in range(0, 40, 8)]
    refs.append(vm.allocate(64, name="late"))
    assert vm.store.refs[holder.oid][-1] == refs[-1].oid


def test_compaction_waits_for_the_ratio():
    vm = churn_vm("ps")
    kept = [vm.roots.add(vm.allocate(64)) for _ in range(10)]
    # One dead row short of the ratio: no compaction.
    for _ in range(STORE_COMPACT_RATIO * len(kept) - 1):
        vm.allocate(64)
    vm.minor_gc()
    assert vm.store.freed_rows() == STORE_COMPACT_RATIO * len(kept) - 1
    vm.allocate(64)
    vm.minor_gc()
    assert vm.store.freed_rows() == 0
    assert len(vm.store) == 1 + len(kept)
    assert [obj.oid for obj in kept] == list(range(1, 11))


def test_g1_never_compacts(count_compactions):
    vm = run_churn("g1", steps=1500)
    assert count_compactions[0] == 0
    assert vm.store.freed_rows() > STORE_COMPACT_RATIO * (
        len(vm.store) - 1 - vm.store.freed_rows()
    )


def renumbered_with_a_successor(vm, obj):
    """Compact ``vm``'s store so ``obj`` takes a lower oid, then allocate
    until a new object takes ``obj``'s old one; returns that object."""
    old = obj.oid
    vm.minor_gc()
    assert obj.oid < old
    while True:
        successor = vm.allocate(64, name="successor")
        if successor.oid == old:
            return successor


def test_roots_follow_their_objects_across_a_compaction():
    vm = churn_vm("ps")
    vm.allocate_many([64] * 8, ["garbage"] * 8)
    first = vm.roots.add(vm.allocate(64, name="first"))
    successor = vm.roots.add(renumbered_with_a_successor(vm, first))
    assert list(vm.roots) == [first, successor]
    vm.roots.remove(first)
    assert list(vm.roots) == [successor]
    assert first not in vm.roots


def test_tagged_roots_follow_their_objects_across_a_compaction():
    vm = churn_vm("teraheap")
    vm.allocate_many([64] * 8, ["garbage"] * 8)
    first = vm.roots.add(vm.allocate(64, name="first"))
    vm.h2_tag_root(first, "a")
    successor = vm.roots.add(renumbered_with_a_successor(vm, first))
    vm.h2_tag_root(successor, "b")
    assert vm.hints.tagged_roots() == [first, successor]
