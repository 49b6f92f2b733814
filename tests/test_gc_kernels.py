"""Pinned engine schedules of small collector runs.

Each job runs with ``engine.trace`` on, so its digest covers every engine
task the collector emitted (name, kind, cost and the lane it ran on, via
the chrome-trace events), every phase record in ``engine.phase_log``,
every recorded GC cycle, the clock's buckets and sub-buckets, the
collector's device traffic and the size, address and space of every
store row that is not FREED, in oid order (oids hashed as those rows'
ranks, so a store compaction moves no digest).  The jobs are:

- LR on Spark-SD under ``ps`` (single-lane majors) and ``ps11``
  (multi-worker majors);
- LR with the cache on heap under Panthera and memory mode, whose
  per-object marking, compaction and scavenge hooks charge NVM I/O;
- a seeded object churn on a 2 MiB heap, whose growing live set drives
  promotion failures and full collections that spill stayers into eden
  under PS, and evacuation failures into ``_full_collection`` under G1
  (whose digest hashes each region's oids in place of PS's spaces);
- object groups moved to H2 on a 2 MiB TeraHeap VM (the H2 closure).

The rest of the file holds the column kernels behind those schedules to
the per-object loops they replace, bit for bit: ``TaskBag.add_batches``
against a ``+=`` loop, ``GCTaskEngine.run`` (single-lane and general)
against a per-task scheduler, first-fit placement against its loop, and
``Space.place_many`` against ``Space.allocate`` per object.
"""

import hashlib
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import ranked, ranked_column
from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.clock import Clock
from repro.config import CostModel, GCEngineConfig, PantheraConfig
from repro.devices.mmap import BASE_PAGE
from repro.devices.nvm import NVM
from repro.devices.nvme import NVMeSSD
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.gc.engine import GCTask, GCTaskEngine, TaskBag, WorkerStats
from repro.gc.parallel_scavenge import _first_fit
from repro.heap.object_model import HeapObject, SpaceId
from repro.heap.spaces import Space
from repro.heap.store import HeapStore
from repro.units import KiB, MiB

#: GC scan-cost multipliers drawn for the churn jobs' objects
SCAN_FACTORS = (0.5, 1.0, 3.0)

#: digest of :func:`schedule_summary` per job
GOLDEN_SCHEDULE_DIGESTS = {
    "lr-ps": "6716946c3501cd7f",
    "lr-ps11": "5f9808b1c83a73a9",
    "lr-panthera": "b62f719be3f8f0cb",
    "lr-memmode": "c448185ffd21ac64",
    "churn-ps": "375ee2cabbcfa60e",
    "churn-ps11": "62296b154d4b3dfb",
    "churn-g1": "729cf2bc764a2acc",
    "churn-teraheap": "63e75056622cc7f3",
}


def run_lr(collector: str) -> JavaVM:
    """LR on a 16 GB heap: S/D for the PS flavours, on-heap otherwise."""
    panthera = None
    policy = CachePolicy.SD
    if collector == "panthera":
        panthera = PantheraConfig(dram_old_size=gb(1))
    if collector in ("panthera", "memmode"):
        policy = CachePolicy.MO
    vm = JavaVM(
        VMConfig(
            heap_size=gb(16),
            collector=collector,
            mutator_threads=8,
            page_cache_size=gb(2),
            young_fraction=1.0 / 6.0 if panthera else 1.0 / 3.0,
            panthera=panthera,
            engine=GCEngineConfig(trace=True),
        )
    )
    if panthera:
        vm.heap.pretenure_threshold = 64 * KiB
        nvm = NVM(vm.clock)
        vm.old_gen_device = nvm
        vm.collector.nvm = nvm
    ctx = SparkContext(
        vm,
        SparkConf(cache_policy=policy, offheap_device=NVMeSSD(vm.clock)),
    )
    SPARK_WORKLOADS["LR"](ctx, gb(24), scale=0.2)
    return vm


def run_churn(collector: str, seed: int = 1, steps: int = 4000) -> JavaVM:
    """Seeded churn whose live-set cap grows from 50% to 75% of the heap.

    New objects are rooted or stored into a rooted object; dropping a
    root frees its whole subtree, so the live bytes are known and the
    run never outgrows old + eden.  Objects carry mixed scan factors,
    which only some GC phases scale their visit cost by.
    """
    heap = 2 * MiB
    vm = JavaVM(
        VMConfig(
            heap_size=heap,
            collector=collector,
            page_cache_size=MiB,
            engine=GCEngineConfig(trace=True),
        )
    )
    rng = random.Random(seed)
    rooted = []  # [root, bytes of the root and its children]
    live = 0
    for i in range(steps):
        cap = heap * (0.5 + 0.25 * i / steps)
        size = rng.choice([64, 256, 1024, 4096, 24 * KiB])
        obj = vm.allocate(size, name=f"o{i}")
        obj.scan_factor = rng.choice(SCAN_FACTORS)
        draw = rng.random()
        if live + size < cap:
            if rooted and draw < 0.5:
                entry = rooted[rng.randrange(len(rooted))]
                vm.write_ref(entry[0], obj)
                entry[1] += size
                live += size
            elif draw < 0.8:
                vm.roots.add(obj)
                rooted.append([obj, size])
                live += size
        if rooted and rng.random() < 0.15:
            root, nbytes = rooted.pop(rng.randrange(len(rooted)))
            vm.roots.remove(root)
            live -= nbytes
    return vm


def run_teraheap_churn(seed: int = 1, steps: int = 60) -> JavaVM:
    """Object groups tagged for H2 on a 2 MiB TeraHeap VM.

    Each step builds a group (a root over children with mixed scan
    factors), tags and moves most groups, keeps eight rooted and drops
    garbage; every tenth step forces a full GC, whose H2 closure and
    transfers run on the engine.
    """
    vm = JavaVM(
        VMConfig(
            heap_size=2 * MiB,
            page_cache_size=16 * BASE_PAGE,
            teraheap=TeraHeapConfig(
                enabled=True, h2_size=gb(1), region_size=16 * KiB
            ),
            engine=GCEngineConfig(trace=True),
        )
    )
    rng = random.Random(seed)
    groups = []
    for g in range(steps):
        with vm.roots.frame() as frame:
            kids = []
            for i in range(rng.randrange(4, 24)):
                kid = vm.allocate(
                    rng.choice([256, 1024, 4096]), name=f"g{g}-{i}"
                )
                kid.scan_factor = rng.choice(SCAN_FACTORS)
                kids.append(frame.push(kid))
            root = vm.allocate(64 + 8 * len(kids), refs=kids, name=f"g{g}")
        vm.roots.add(root)
        groups.append(root)
        if rng.random() < 0.6:
            vm.h2_tag_root(root, f"g{g}")
            vm.h2_move(f"g{g}")
        if len(groups) > 8:
            vm.roots.remove(groups.pop(rng.randrange(len(groups))))
        for _ in range(40):
            vm.allocate(rng.choice([512, 2048]))
        if g % 10 == 9:
            vm.major_gc()
    return vm


def _sha(value) -> str:
    if not isinstance(value, bytes):
        value = repr(value).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def _cycle_fields(cycle) -> tuple:
    """A cycle's outcome and schedule, without its clock timestamps.

    ``Clock.now`` is a builtin ``sum`` over the buckets, which Python
    3.12 compensates, so start times and durations may differ in the
    last bit across Python versions; the bucket totals do not.
    """
    return (
        cycle.kind,
        cycle.live_bytes,
        cycle.reclaimed_bytes,
        cycle.promoted_bytes,
        cycle.old_occupancy_after,
        cycle.tasks_executed,
        cycle.steals,
        cycle.worker_busy,
        cycle.worker_steals,
    )


def _event_fields(event) -> tuple:
    """A trace event's task name, phase, lane-local cost and lane.

    Its ``ts`` adds ``Clock.now``, left out for the reason above.
    """
    return (
        event["name"],
        event["cat"],
        event["dur"],
        event["tid"],
        event["args"]["kind"],
    )


def schedule_summary(vm: JavaVM) -> str:
    engine = vm.collector.engine
    events = engine.trace_events
    stats = vm.collector.stats
    lines = [f"bucket.{k}={v!r}" for k, v in sorted(vm.breakdown().items())]
    subs = vm.clock.sub_breakdown()
    lines += [f"sub.{k}={v!r}" for k, v in sorted(subs.items())]
    lines += [
        f"minor_count={stats.minor_count!r}",
        f"major_count={stats.major_count!r}",
        f"cycles={_sha([_cycle_fields(c) for c in stats.cycles])}",
        f"phase_log={_sha(engine.phase_log)}",
        f"trace_events={_sha([_event_fields(e) for e in events])}",
        f"engine.totals={engine.total_tasks!r},{engine.total_steals!r},"
        f"{engine.total_phases!r}",
    ]
    device = vm.old_gen_device
    if device is not None:
        traffic = device.traffic
        lines += [
            f"nvm.bytes_read={traffic.bytes_read!r}",
            f"nvm.bytes_written={traffic.bytes_written!r}",
            f"nvm.read_ops={traffic.read_ops!r}",
            f"nvm.write_ops={traffic.write_ops!r}",
        ]
    if vm.h2 is not None:
        lines += [
            f"h2.objects_moved={vm.h2.objects_moved!r}",
            f"h2.bytes_moved={vm.h2.bytes_moved!r}",
        ]
    heap, store = vm.heap, vm.store
    if vm.collector.name == "g1":
        for region in heap.regions:
            oids = ranked(store, region.oid_array())
            lines.append(
                f"region{region.index}.{region.state.value}"
                f".top={region.top!r} oids={_sha(oids)}"
            )
    else:
        for space in (
            heap.eden, heap.survivor_from, heap.survivor_to, heap.old
        ):
            oids = ranked(store, space.oid_array())
            lines.append(f"{space.name}.top={space.top!r} oids={_sha(oids)}")
    lines += [
        f"objects={store.object_count!r}",
        f"sizes={_sha(ranked_column(store, 'size'))}",
        f"addresses={_sha(ranked_column(store, 'address'))}",
        f"spaces={_sha(ranked_column(store, 'space'))}",
        f"ages={_sha(ranked_column(store, 'age', np.int64))}",
    ]
    return "\n".join(lines)


JOBS = {
    "lr-ps": lambda: run_lr("ps"),
    "lr-ps11": lambda: run_lr("ps11"),
    "lr-panthera": lambda: run_lr("panthera"),
    "lr-memmode": lambda: run_lr("memmode"),
    "churn-ps": lambda: run_churn("ps"),
    "churn-ps11": lambda: run_churn("ps11"),
    "churn-g1": lambda: run_churn("g1"),
    "churn-teraheap": run_teraheap_churn,
}


@pytest.mark.parametrize("job", sorted(JOBS))
def test_engine_schedule_golden_digest(job):
    vm = JOBS[job]()
    stats = vm.collector.stats
    assert stats.minor_count > 0
    assert stats.major_count > 0
    assert vm.collector.engine.trace_events
    if job == "lr-panthera":
        assert vm.collector.nvm_objects_scanned > 0
        assert vm.collector.nvm_objects_moved > 0
    if job == "churn-teraheap":
        assert vm.h2.objects_moved > 0
    if job == "churn-g1":
        assert vm.collector.full_collections > 0
    summary = schedule_summary(vm)
    assert _sha(summary) == GOLDEN_SCHEDULE_DIGESTS[job], summary


# ---------------------------------------------------------------------
# Column kernels == the per-object loops they replace
# ---------------------------------------------------------------------
def _bits(value: float) -> str:
    """Bit-exact float identity (tells 0.0 from -0.0)."""
    return float(value).hex()


def reference_batches(name, kind, costs, k):
    """The per-object ``+=`` accumulation ``add_batches`` replaces."""
    tasks = []
    total, count = 0.0, 0
    for cost in costs:
        total += cost
        count += 1
        if count == k:
            tasks.append((f"{name}-{len(tasks)}", _bits(total), kind, None))
            total, count = 0.0, 0
    if count:
        tasks.append((f"{name}-{len(tasks)}", _bits(total), kind, None))
    return tasks


def batches(costs, k):
    bag = TaskBag()
    bag.add_batches("scan", "copy", costs, k)
    return [(t.name, _bits(t.cost), t.kind, t.affinity) for t in bag]


COSTS = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from([0.0, -0.0, 1.0, 1e16, 1e-300, 3.0e-7]),
)


@settings(max_examples=200, deadline=None)
@given(costs=st.lists(COSTS, max_size=80), k=st.integers(1, 12))
def test_add_batches_matches_sequential_adds(costs, k):
    assert batches(costs, k) == reference_batches("scan", "copy", costs, k)
    # A numpy column gives the same tasks as a list.
    assert batches(np.asarray(costs), k) == batches(costs, k)


@pytest.mark.parametrize(
    "costs,k",
    [
        ([], 4),  # empty input
        ([0.5] * 7, 1),  # one task per cost
        ([0.5] * 3, 8),  # fewer costs than one batch
        ([0.25] * 12, 4),  # an exact multiple: no tail task
        ([1e16] + [1.0] * 15, 16),  # adversarial magnitudes
        ([1.0] * 15 + [1e16], 16),
        ([-0.0, -0.0, 1.0, -0.0], 2),  # signed zeros
    ],
)
def test_add_batches_edge_cases(costs, k):
    assert batches(costs, k) == reference_batches("scan", "copy", costs, k)


def test_add_batches_adds_left_to_right():
    costs = [1e16] + [1.0] * 15
    bag = TaskBag()
    bag.add_batches("mark", "scan", costs, len(costs))
    (task,) = list(bag)
    # Each 1.0 rounds away against 1e16 when added in order; pairwise
    # (np.sum) and compensated (Python 3.12 sum) totals keep them.
    assert task.cost == 1e16
    assert float(np.sum(costs)) != 1e16
    assert math.fsum(costs) != 1e16


def test_add_batches_rejects_negative_costs_and_bad_sizes():
    bag = TaskBag()
    with pytest.raises(ValueError, match="negative cost"):
        bag.add_batches("scan", "scan", [1.0, -1.0], 4)
    with pytest.raises(ValueError, match="batch size"):
        bag.add_batches("scan", "scan", [1.0], 0)
    assert not bag


def reference_run(engine, tasks, phase, workers=None, concurrent_budget=None):
    """``GCTaskEngine.run`` as a per-task scheduler over every lane.

    The general loop, with no single-lane case: pick the least-loaded
    lane each task, steal when its deque is empty, advance it twice.
    """
    task_list = list(tasks)
    requested = (
        engine.workers if workers is None else min(workers, engine.workers)
    )
    n = max(1, min(requested, max(1, len(task_list))))
    deques = [deque() for _ in range(n)]
    rr = 0
    for task in task_list:
        if task.affinity is not None:
            deques[task.affinity % n].append(task)
        else:
            deques[rr % n].append(task)
            rr += 1
    stats = [WorkerStats(i) for i in range(n)]
    cost = engine.cost
    t0 = engine.clock.now
    if concurrent_budget is None:
        region = engine.clock.parallel(n)
    else:
        region = engine.clock.concurrent(n, budget=concurrent_budget)
    with region as lanes:
        remaining = len(task_list)
        while remaining:
            w = min(range(n), key=lambda i: (lanes.lane_time(i), i))
            if not deques[w]:
                victims = [i for i in range(n) if deques[i]]
                victim = victims[engine.rng.randrange(len(victims))]
                deques[w].append(deques[victim].pop())
                lanes.advance(w, cost.gc_steal_cost, kind="steal")
                stats[w].steals += 1
            task = deques[w].popleft()
            start = lanes.lane_time(w)
            lanes.advance(w, cost.gc_task_dispatch_cost, kind="overhead")
            lanes.advance(w, task.cost, kind="busy")
            stats[w].tasks += 1
            remaining -= 1
            if engine.trace:
                engine.trace_events.append(
                    {
                        "name": task.name,
                        "cat": phase,
                        "ph": "X",
                        "ts": round((t0 + start) * 1e6, 3),
                        "dur": round((lanes.lane_time(w) - start) * 1e6, 3),
                        "pid": 1,
                        "tid": w,
                        "args": {"kind": task.kind},
                    }
                )
        if n > 1:
            for i in range(n):
                lanes.advance(i, cost.gc_termination_cost, kind="overhead")
        for i in range(n):
            stats[i].busy_seconds = lanes.busy[i]
            stats[i].steal_seconds = lanes.steal[i]
            stats[i].overhead_seconds = lanes.overhead[i]
            stats[i].idle_seconds = lanes.idle(i)
    return stats


def _engine_state(engine, clock):
    return (
        sorted((k, _bits(v)) for k, v in clock.breakdown().items()),
        sorted((k, _bits(v)) for k, v in clock.sub_breakdown().items()),
        engine.trace_events,
    )


def _worker_fields(stats):
    return [
        (
            s.index,
            s.tasks,
            s.steals,
            _bits(s.busy_seconds),
            _bits(s.steal_seconds),
            _bits(s.overhead_seconds),
            _bits(s.idle_seconds),
        )
        for s in stats
    ]


@settings(max_examples=150, deadline=None)
@given(
    phases=st.lists(
        st.tuples(
            st.lists(
                st.tuples(COSTS.filter(lambda c: c < 1e200), st.booleans()),
                max_size=40,
            ),
            st.integers(1, 6),  # lanes requested
            st.sampled_from([None, 0.0, 1e-6, 1.0]),  # concurrent budget
        ),
        min_size=1,
        max_size=4,
    ),
    pool=st.integers(1, 4),
    trace=st.booleans(),
)
def test_engine_run_matches_general_loop(phases, pool, trace):
    """Single-lane phases and multi-lane ones alike, bit for bit.

    Worker stats carry each lane's busy, steal and overhead totals; the
    clock carries the critical path charged to the pause.
    """
    engines = []
    for _ in range(2):
        clock = Clock()
        engines.append(
            (
                GCTaskEngine(
                    clock,
                    CostModel(),
                    workers=pool,
                    seed=11,
                    trace=trace,
                ),
                clock,
            )
        )
    (engine, clock), (ref, ref_clock) = engines
    for tasks, lanes, budget in phases:
        bag = TaskBag()
        for i, (cost, pinned) in enumerate(tasks):
            bag.add(f"t{i}", cost, affinity=i if pinned else None)
        clock.charge(0.5)  # mutator time a concurrent phase may hide behind
        ref_clock.charge(0.5)
        with clock.sub_context("phase"), ref_clock.sub_context("phase"):
            execution = engine.run(
                bag, "p", workers=lanes, concurrent_budget=budget
            )
            if not bag:
                continue
            stats = reference_run(
                ref, bag, "p", workers=lanes, concurrent_budget=budget
            )
        assert _worker_fields(execution.per_worker) == _worker_fields(stats)
        assert _engine_state(engine, clock) == _engine_state(ref, ref_clock)
    assert engine.rng.getstate() == ref.rng.getstate()


def test_single_lane_run_rejects_negative_task_costs():
    clock = Clock()
    engine = GCTaskEngine(clock, CostModel(), workers=1, seed=3)
    with pytest.raises(ValueError, match="cannot advance a lane"):
        engine.run([GCTask("bad", -1.0)], "phase")
    assert clock.now == 0.0


def reference_first_fit(sizes, room):
    used, taken = 0, []
    for size in sizes:
        taken.append(used + size <= room)
        if taken[-1]:
            used += size
    return taken


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(16, 4096), max_size=40),
    room=st.integers(0, 40000),
)
def test_first_fit_matches_loop(sizes, room):
    fits = _first_fit(np.asarray(sizes, dtype=np.int64), room)
    assert fits.tolist() == reference_first_fit(sizes, room)


def _space_state(space, store, oids):
    return (
        space.top,
        space.oid_array().tolist(),
        space.oids_overlapping([space.base], [space.end]),
        [store.address[o] for o in oids],
        [store.space[o] for o in oids],
    )


@settings(max_examples=150, deadline=None)
@given(
    before=st.lists(st.integers(16, 2048), max_size=6),
    sizes=st.lists(st.integers(16, 2048), max_size=30),
    capacity=st.integers(0, 30000),
    cached=st.booleans(),
)
def test_place_many_matches_per_object_allocate(
    before, sizes, capacity, cached
):
    """``place_many`` == ``allocate`` per object up to the first misfit,
    whether or not the address index was built before the placement."""
    results = []
    for batched in (False, True):
        store = HeapStore()
        space = Space(store, SpaceId.TO, 4096, capacity + sum(before))
        for size in before:
            assert space.allocate(HeapObject(size, store=store).oid)
        if cached:
            space.oids_overlapping([space.base], [space.end])
        oids = [HeapObject(size, store=store).oid for size in sizes]
        if batched:
            placed = space.place_many(np.asarray(oids, dtype=np.int64))
        else:
            placed = 0
            for oid in oids:
                if not space.allocate(oid):
                    break
                placed += 1
        results.append((placed, _space_state(space, store, oids)))
    assert results[0] == results[1]


def test_place_many_partial_fit_leaves_the_rest():
    store = HeapStore()
    space = Space(store, SpaceId.OLD, 0, 100)
    oids = np.asarray(
        [HeapObject(size, store=store).oid for size in (40, 40, 40, 16)],
        dtype=np.int64,
    )
    assert space.place_many(oids) == 2
    assert space.top == 80
    assert [store.address[o] for o in oids.tolist()] == [0, 40, -1, -1]
    assert space.place_many(oids[2:]) == 0
    assert space.place_many(oids[3:]) == 1
    assert space.top == 96
