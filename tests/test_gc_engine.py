"""Task-based GC engine: scheduling, determinism, scalar-model parity."""

import json

import pytest

from repro.clock import Bucket, Clock
from repro.config import CostModel, VMConfig
from repro.devices.nvme import NVMeSSD
from repro.experiments import gc_scaling, harness
from repro.experiments.configs import SPARK_DR2_GB, SPARK_WORKLOADS_TABLE3
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.gc.base import GCCycle, GCStats
from repro.gc.engine import GCTaskEngine, TaskBag, chunked_sweep
from repro.metrics import chrome_trace_json
from repro.metrics.trace import gc_timeline_csv
from repro.runtime import JavaVM
from repro.units import gb


def make_engine(workers=4, trace=False, clock=None):
    return GCTaskEngine(
        clock or Clock(), CostModel(), workers=workers, seed=7, trace=trace
    )


# ======================================================================
# Task decomposition
# ======================================================================
def test_task_bag_rejects_negative_cost():
    bag = TaskBag()
    with pytest.raises(ValueError):
        bag.add("bad", -1.0)


def test_batch_builder_emits_fixed_size_batches():
    bag = TaskBag()
    b = bag.batcher("scan", "scan", 4)
    for _ in range(10):
        b.add(0.5)
    b.flush()
    assert len(bag) == 3  # 4 + 4 + 2
    assert bag.serial_seconds == pytest.approx(5.0)
    assert [t.name for t in bag] == ["scan-0", "scan-1", "scan-2"]
    b.flush()  # idempotent on an empty builder
    assert len(bag) == 3


def test_chunked_sweep_folds_extra_costs_with_affinity():
    bag = TaskBag()
    chunked_sweep(
        bag, "cards", 10, per_item_cost=1.0, chunk_items=4,
        extra={0: 5.0, 9: 7.0},
    )
    tasks = list(bag)
    assert [t.cost for t in tasks] == [9.0, 4.0, 9.0]  # 4+5, 4, 2+7
    assert [t.affinity for t in tasks] == [0, 1, 2]
    empty = TaskBag()
    chunked_sweep(empty, "cards", 0, 1.0, 4)
    assert not empty


# ======================================================================
# Engine scheduling
# ======================================================================
def test_empty_bag_charges_nothing():
    clock = Clock()
    engine = make_engine(clock=clock)
    execution = engine.run(TaskBag(), "noop")
    assert execution.tasks == 0
    assert clock.now == 0.0


def test_single_worker_charges_serial_cost_plus_dispatch():
    clock = Clock()
    cost = CostModel()
    engine = make_engine(workers=1, clock=clock)
    bag = TaskBag()
    for i in range(5):
        bag.add(f"t{i}", 1.0)
    execution = engine.run(bag, "phase")
    expected = 5.0 + 5 * cost.gc_task_dispatch_cost
    assert clock.now == pytest.approx(expected)
    assert execution.steals == 0
    assert execution.idle_seconds == 0.0
    assert execution.imbalance == pytest.approx(1.0)


def test_workers_capped_by_task_count():
    engine = make_engine(workers=16)
    bag = TaskBag()
    bag.add("a", 1.0)
    bag.add("b", 1.0)
    execution = engine.run(bag, "phase")
    assert execution.workers == 2


def test_parallel_run_beats_serial_and_reports_lanes():
    clock = Clock()
    engine = make_engine(workers=4, clock=clock)
    bag = TaskBag()
    for i in range(32):
        bag.add(f"t{i}", 0.01)
    execution = engine.run(bag, "phase")
    assert execution.critical_path < execution.serial_seconds
    assert clock.now == pytest.approx(execution.critical_path)
    assert execution.speedup > 2.0
    assert len(execution.per_worker) == 4
    assert sum(w.tasks for w in execution.per_worker) == 32
    assert execution.imbalance >= 1.0


def test_affinity_skew_forces_steals():
    engine = make_engine(workers=4)
    bag = TaskBag()
    for i in range(16):
        bag.add(f"t{i}", 0.01, affinity=0)  # all on worker 0's deque
    execution = engine.run(bag, "phase")
    assert execution.steals > 0
    thieves = [w for w in execution.per_worker if w.index != 0]
    assert sum(w.tasks for w in thieves) > 0
    assert sum(w.steals for w in thieves) == execution.steals


def test_termination_cost_only_with_multiple_workers():
    cost = CostModel()
    c1, c2 = Clock(), Clock()
    bag1, bag2 = TaskBag(), TaskBag()
    for bag in (bag1, bag2):
        bag.add("a", 1.0)
        bag.add("b", 1.0)
    make_engine(workers=1, clock=c1).run(bag1, "p")
    make_engine(workers=2, clock=c2).run(bag2, "p")
    # Two equal tasks split perfectly across two lanes: half the busy
    # time, plus the termination protocol each worker pays.
    assert c2.now == pytest.approx(
        1.0 + cost.gc_task_dispatch_cost + cost.gc_termination_cost
    )
    assert c1.now == pytest.approx(2.0 + 2 * cost.gc_task_dispatch_cost)


def test_engine_charges_into_current_bucket():
    clock = Clock()
    engine = make_engine(workers=2, clock=clock)
    bag = TaskBag()
    bag.add("a", 1.0)
    with clock.context(Bucket.MAJOR_GC):
        engine.run(bag, "phase")
    assert clock.total(Bucket.MAJOR_GC) > 0.0
    assert clock.total(Bucket.OTHER) == 0.0


# ======================================================================
# Determinism (satellite: seeded stealing, byte-identical runs)
# ======================================================================
def test_two_runs_are_byte_identical():
    vm1 = gc_scaling.run_churn(4, batches=8, trace=True)
    vm2 = gc_scaling.run_churn(4, batches=8, trace=True)
    assert vm1.breakdown() == vm2.breakdown()
    csv1 = gc_timeline_csv(vm1.collector.stats.cycles)
    csv2 = gc_timeline_csv(vm2.collector.stats.cycles)
    assert csv1 == csv2
    trace1 = chrome_trace_json(vm1.collector.engine)
    trace2 = chrome_trace_json(vm2.collector.engine)
    assert trace1 == trace2
    assert vm1.collector.engine.total_steals > 0


def test_engine_seed_comes_from_config():
    vm = gc_scaling.run_churn(2, batches=2)
    assert vm.config.engine.seed == 0x7E2A6C


# ======================================================================
# Chrome-trace export
# ======================================================================
def test_chrome_trace_document_shape():
    vm = gc_scaling.run_churn(2, batches=6, trace=True)
    doc = json.loads(chrome_trace_json(vm.collector.engine, label="churn"))
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in meta} >= {"process_name", "thread_name"}
    assert spans, "tracing produced no task events"
    for span in spans:
        assert span["tid"] in (0, 1)
        assert span["dur"] >= 0
        assert "kind" in span["args"]
    assert doc["otherData"]["tasks"] == vm.collector.engine.total_tasks


def test_trace_disabled_by_default():
    vm = gc_scaling.run_churn(2, batches=4)
    assert vm.collector.engine.trace_events == []


# ======================================================================
# Single-thread parity with the scalar model (fig06 workload)
# ======================================================================
def _fig06_cell_vm(gc_threads: int) -> JavaVM:
    """One Figure 6 Spark-SD cell (PR, largest DRAM point)."""
    cfg = SPARK_WORKLOADS_TABLE3["PR"]
    dram = cfg.sd_drams[-1]
    heap_gb = max(dram - SPARK_DR2_GB, dram / 2)
    vm = JavaVM(
        VMConfig(
            heap_size=gb(heap_gb),
            collector="ps",
            gc_threads=gc_threads,
            page_cache_size=gb(SPARK_DR2_GB),
        )
    )
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.SD,
            offheap_device=NVMeSSD(vm.clock),
        ),
    )
    SPARK_WORKLOADS["PR"](ctx, gb(cfg.dataset_gb), scale=0.25)
    return vm


def test_single_thread_within_5pct_of_scalar_model_on_fig06():
    """gc_threads=1: engine overhead (dispatch; no stealing, no
    termination) must keep every cycle within 5% of the pre-engine
    scalar cost model, whose pause was exactly the serial task cost."""
    vm = _fig06_cell_vm(1)
    cycles = [c for c in vm.collector.stats.cycles if c.tasks_executed]
    assert cycles, "fig06 cell ran no GC"
    for cycle in cycles:
        overhead = cycle.parallel_seconds - cycle.parallel_serial_seconds
        assert overhead >= 0.0
        scalar_duration = cycle.duration - overhead
        assert cycle.duration <= scalar_duration * 1.05
        assert cycle.steals == 0
        assert cycle.idle_seconds == 0.0
        assert cycle.imbalance == pytest.approx(1.0)


# ======================================================================
# Thread scaling (sweep shape)
# ======================================================================
def test_scaling_monotone_and_sublinear():
    points = gc_scaling.run_scaling((1, 2, 4, 8, 16), batches=16)
    by_threads = {p.gc_threads: p for p in points}
    pauses = [by_threads[t].total_pause_s for t in (1, 2, 4, 8, 16)]
    assert pauses == sorted(pauses, reverse=True)
    prev = 0.0
    for t in (2, 4, 8, 16):
        p = by_threads[t]
        assert p.pause_speedup > prev  # monotone in threads
        assert p.pause_speedup < t  # sub-linear (overheads tax lanes)
        assert len(p.worker_steals) == t
        assert len(p.worker_idle_s) == t
        prev = p.pause_speedup
    assert by_threads[1].pause_speedup == pytest.approx(1.0)
    # Wide pools steal and idle; the serial point cannot.
    assert by_threads[16].steals > 0
    assert by_threads[16].idle_s > by_threads[1].idle_s


# ======================================================================
# GCStats aggregation (satellite: phase_totals / mean_time coverage)
# ======================================================================
def _cycle(kind, duration, **kwargs):
    return GCCycle(kind=kind, start_time=0.0, duration=duration, **kwargs)


def test_gcstats_phase_totals_and_mean_time():
    stats = GCStats()
    stats.record(_cycle("minor", 1.0))
    stats.record(_cycle("minor", 3.0))
    stats.record(
        _cycle("major", 10.0, phases={"marking": 6.0, "compact": 4.0})
    )
    stats.record(
        _cycle("major", 20.0, phases={"marking": 12.0, "adjust": 8.0})
    )
    assert stats.mean_time("minor") == pytest.approx(2.0)
    assert stats.mean_time("major") == pytest.approx(15.0)
    assert stats.mean_time("concurrent") == 0.0  # no such cycles
    assert stats.phase_totals() == {
        "marking": 18.0,
        "compact": 4.0,
        "adjust": 8.0,
    }


def test_gcstats_parallel_aggregates():
    stats = GCStats()
    stats.record(
        _cycle(
            "minor", 2.0, gc_threads=4, tasks_executed=10, steals=2,
            idle_seconds=0.5, imbalance=1.2,
            parallel_serial_seconds=4.0, parallel_seconds=1.5,
        )
    )
    stats.record(
        _cycle(
            "major", 6.0, gc_threads=4, tasks_executed=30, steals=4,
            idle_seconds=1.5, imbalance=1.4,
            parallel_serial_seconds=12.0, parallel_seconds=4.5,
        )
    )
    assert stats.total_tasks() == 40
    assert stats.total_tasks("minor") == 10
    assert stats.total_steals() == 6
    assert stats.total_idle("major") == pytest.approx(1.5)
    # Parallel-time-weighted: (1.2*1.5 + 1.4*4.5) / 6.0
    assert stats.mean_imbalance() == pytest.approx(1.35)
    # serial / (threads * parallel) = 16 / (4 * 6)
    assert stats.parallel_efficiency() == pytest.approx(16.0 / 24.0)
    assert stats.cycles[0].parallel_speedup == pytest.approx(4.0 / 1.5)


def test_gcstats_parallel_aggregates_single_thread_edge():
    vm = gc_scaling.run_churn(1, batches=8)
    stats = vm.collector.stats
    assert stats.cycles
    for cycle in stats.cycles:
        assert cycle.gc_threads == 1
        assert cycle.steals == 0
        assert cycle.idle_seconds == 0.0
        assert cycle.imbalance == pytest.approx(1.0)
        assert cycle.worker_busy and len(cycle.worker_busy) == 1
        assert cycle.worker_steals == [0]
    assert stats.total_steals() == 0
    assert stats.mean_imbalance() == pytest.approx(1.0)
    # Only dispatch overhead separates the engine from the serial model.
    assert 0.99 <= stats.parallel_efficiency() <= 1.0


def test_empty_stats_defaults():
    stats = GCStats()
    assert stats.mean_imbalance() == 1.0
    assert stats.parallel_efficiency() == 1.0
    assert stats.total_tasks() == 0


# ======================================================================
# Worker clamp (satellite bugfix: explicit workers= vs the pool size)
# ======================================================================
def test_explicit_workers_clamped_to_pool_size():
    engine = make_engine(workers=2)
    bag = TaskBag()
    for i in range(8):
        bag.add(f"t{i}", 0.01)
    execution = engine.run(bag, "phase", workers=8)
    assert execution.workers == 2
    assert len(execution.per_worker) == 2


def test_explicit_workers_can_narrow_the_pool():
    engine = make_engine(workers=8)
    bag = TaskBag()
    for i in range(8):
        bag.add(f"t{i}", 0.01)
    execution = engine.run(bag, "phase", workers=3)
    assert execution.workers == 3


# ======================================================================
# Concurrent lane set (tentpole: marking races the mutator budget)
# ======================================================================
def test_concurrent_budget_hides_up_to_the_critical_path():
    clock = Clock()
    engine = make_engine(workers=4, clock=clock)
    bag = TaskBag()
    for i in range(16):
        bag.add(f"t{i}", 0.01)
    with clock.context(Bucket.MAJOR_GC):
        execution = engine.run(bag, "mark", concurrent_budget=100.0)
    assert execution.hidden_seconds == pytest.approx(
        execution.critical_path
    )
    assert execution.charged_seconds == pytest.approx(0.0)
    assert clock.total(Bucket.MAJOR_GC) == pytest.approx(0.0)
    assert engine.total_hidden_seconds == pytest.approx(
        execution.hidden_seconds
    )
    assert execution.stat_record()["hidden_s"] == pytest.approx(
        execution.hidden_seconds
    )


def test_concurrent_budget_charges_only_the_overrun():
    clock = Clock()
    engine = make_engine(workers=1, clock=clock)
    bag = TaskBag()
    bag.add("t", 1.0)
    with clock.context(Bucket.MAJOR_GC):
        execution = engine.run(bag, "mark", concurrent_budget=0.25)
    assert execution.hidden_seconds == pytest.approx(0.25)
    assert clock.total(Bucket.MAJOR_GC) == pytest.approx(
        execution.critical_path - 0.25
    )


def test_plain_runs_hide_nothing():
    clock = Clock()
    engine = make_engine(workers=2, clock=clock)
    bag = TaskBag()
    bag.add("t", 1.0)
    execution = engine.run(bag, "phase")
    assert execution.hidden_seconds == 0.0
    assert execution.charged_seconds == pytest.approx(
        execution.critical_path
    )
    assert engine.total_hidden_seconds == 0.0


def test_summary_accumulates_hidden_seconds():
    from repro.gc.engine.engine import summarize_executions

    clock = Clock()
    engine = make_engine(workers=2, clock=clock)
    execs = []
    for budget in (100.0, None):
        bag = TaskBag()
        bag.add("t", 0.5)
        execs.append(engine.run(bag, "mark", concurrent_budget=budget))
    summary = summarize_executions(execs, workers=2)
    assert summary.hidden_seconds == pytest.approx(
        execs[0].hidden_seconds
    )
    assert summary.hidden_seconds > 0.0


# ======================================================================
# Cycle summary accounting (satellite bugfix: per-phase-weighted mean)
# ======================================================================
def test_summary_imbalance_weights_mixed_worker_phases():
    """A cycle mixing a 2-worker phase with a 1-worker phase: the mean
    active lane time must weight each phase by its own worker count, not
    divide everything by the widest pool."""
    from repro.gc.engine.engine import (
        PhaseExecution,
        WorkerStats,
        summarize_executions,
    )

    wide = PhaseExecution(
        phase="scan", workers=2, tasks=4, serial_seconds=3.0,
        critical_path=2.0, steals=0, idle_seconds=1.0, imbalance=4.0 / 3.0,
        per_worker=[
            WorkerStats(0, busy_seconds=2.0),
            WorkerStats(1, busy_seconds=1.0, idle_seconds=1.0),
        ],
    )
    narrow = PhaseExecution(
        phase="compact", workers=1, tasks=2, serial_seconds=4.0,
        critical_path=4.0, steals=0, idle_seconds=0.0, imbalance=1.0,
        per_worker=[WorkerStats(0, busy_seconds=4.0)],
    )
    summary = summarize_executions([wide, narrow], workers=2)
    # mean active = 3.0/2 (wide) + 4.0/1 (narrow) = 5.5;
    # imbalance = (2.0 + 4.0) / 5.5.  The old max-lane-count formula
    # divided the narrow phase's 4.0s by 2 lanes, giving 6.0/3.5 ~ 1.71.
    assert summary.imbalance == pytest.approx(6.0 / 5.5)
    assert summary.parallel_seconds == pytest.approx(6.0)
    assert summary.serial_seconds == pytest.approx(7.0)


def test_summary_imbalance_uniform_workers_unchanged():
    """All-same-worker-count cycles must keep the old (correct) value."""
    from repro.gc.engine.engine import summarize_executions

    engine = make_engine(workers=4)
    execs = []
    for _ in range(3):
        bag = TaskBag()
        for i in range(16):
            bag.add(f"t{i}", 0.01)
        execs.append(engine.run(bag, "phase"))
    summary = summarize_executions(execs, workers=4)
    active = sum(
        ws.active_seconds for ex in execs for ws in ex.per_worker
    )
    expected = sum(e.critical_path for e in execs) / (active / 4)
    assert summary.imbalance == pytest.approx(expected)


# ======================================================================
# Steal policies (tentpole: steal-one vs steal-half)
# ======================================================================
def make_policy_engine(policy, workers=4, numa_nodes=1, cost=None,
                       clock=None):
    return GCTaskEngine(
        clock or Clock(), cost or CostModel(), workers=workers, seed=7,
        steal_policy=policy, numa_nodes=numa_nodes,
    )


def skewed_bag(n=16, cost=0.01):
    bag = TaskBag()
    for i in range(n):
        bag.add(f"t{i}", cost, affinity=0)
    return bag


def test_engine_rejects_unknown_steal_policy():
    with pytest.raises(ValueError):
        make_policy_engine("steal-two")
    with pytest.raises(ValueError):
        GCTaskEngine(Clock(), CostModel(), workers=2, seed=7, numa_nodes=0)


def test_steal_half_moves_more_tasks_per_steal():
    one = make_policy_engine("steal-one").run(skewed_bag(), "p")
    half = make_policy_engine("steal-half").run(skewed_bag(), "p")
    # Same work either way; only the schedules differ.
    assert one.serial_seconds == pytest.approx(half.serial_seconds)
    assert one.tasks == half.tasks
    # steal-one: every stolen task is its own steal operation.
    assert one.stolen_tasks == one.steals
    # steal-half: bulk transfers — fewer operations, >1 task per grab.
    assert half.steals < one.steals
    assert half.stolen_tasks > half.steals


def test_steal_half_transfer_cost_scales_with_grab_size():
    cost = CostModel(gc_steal_transfer_cost=0.25)
    execution = make_policy_engine("steal-half", cost=cost).run(
        skewed_bag(n=32, cost=1.0), "p"
    )
    assert execution.stolen_tasks > execution.steals
    # Each steal charges base cost plus per-extra-task transfer cost:
    # summed over the run, steal time must equal
    # steals*base + (stolen_tasks - steals)*transfer exactly.
    total_steal_time = sum(
        ws.steal_seconds for ws in execution.per_worker
    )
    expected = (
        execution.steals * cost.gc_steal_cost
        + (execution.stolen_tasks - execution.steals)
        * cost.gc_steal_transfer_cost
    )
    assert total_steal_time == pytest.approx(expected)


def test_scaling_policies_diverge_with_equal_work():
    one = gc_scaling.run_scaling((2,), batches=24, steal_policy="steal-one")
    half = gc_scaling.run_scaling(
        (2,), batches=24, steal_policy="steal-half"
    )
    assert one[0].serial_s == pytest.approx(half[0].serial_s)
    assert one[0].tasks == half[0].tasks
    assert one[0].steals != half[0].steals


# ======================================================================
# NUMA lanes (tentpole: node-aware victim selection + remote premium)
# ======================================================================
def test_local_victims_preferred_when_both_nodes_have_work():
    engine = make_policy_engine("steal-one", workers=4, numa_nodes=2)
    bag = TaskBag()
    for i in range(4):
        bag.add(f"a{i}", 1.0, affinity=0)  # node 0 (workers 0,1)
    for i in range(4):
        bag.add(f"b{i}", 1.0, affinity=2)  # node 1 (workers 2,3)
    execution = engine.run(bag, "p")
    assert execution.steals > 0
    # Each empty worker has a same-node victim the whole run through, so
    # no steal ever crosses the node boundary.
    assert execution.remote_steals == 0


def test_remote_steals_pay_the_numa_premium():
    cost = CostModel(gc_numa_remote_premium=0.5)
    flat = make_policy_engine(
        "steal-one", workers=2, numa_nodes=1, cost=cost
    ).run(skewed_bag(n=8, cost=1.0), "p")
    numa = make_policy_engine(
        "steal-one", workers=2, numa_nodes=2, cost=cost
    ).run(skewed_bag(n=8, cost=1.0), "p")
    # All work sits on worker 0, so worker 1's steals are forced remote
    # under two nodes.
    assert flat.remote_steals == 0
    assert numa.remote_steals == numa.steals > 0
    # Every steal charges the base cost; remote ones add the premium.
    total_steal_time = sum(ws.steal_seconds for ws in numa.per_worker)
    assert total_steal_time == pytest.approx(
        numa.steals * cost.gc_steal_cost + numa.remote_steals * 0.5
    )


def test_numa_nodes_clamped_to_worker_count():
    engine = GCTaskEngine(
        Clock(), CostModel(), workers=2, seed=7, numa_nodes=8
    )
    assert engine.numa_nodes == 2


# ======================================================================
# Adaptive batch sizing (tentpole: feedback controller)
# ======================================================================
def adaptive_config(**kwargs):
    from repro.config import GCEngineConfig

    kwargs.setdefault("adaptive_batching", True)
    return GCEngineConfig(**kwargs)


def summary_with(workers=8, imbalance=1.0, serial=1.0, overhead=0.0,
                 tasks=100, parallel=1.0):
    from repro.gc.engine.engine import ParallelCycleSummary

    return ParallelCycleSummary(
        workers=workers, tasks=tasks, serial_seconds=serial,
        parallel_seconds=parallel, overhead_seconds=overhead,
        imbalance=imbalance,
    )


def test_batch_controller_disabled_is_inert():
    from repro.gc.engine import BatchController

    ctl = BatchController(adaptive_config(adaptive_batching=False))
    assert not ctl.enabled
    assert ctl.observe(summary_with(imbalance=9.0)) == "hold"
    assert ctl.scale == 1.0
    assert ctl.scan_batch_objects == ctl.config.scan_batch_objects


def test_batch_controller_shrinks_on_imbalance_and_clamps():
    from repro.gc.engine import BatchController

    cfg = adaptive_config(scan_batch_objects=32, min_batch_scale=0.25)
    ctl = BatchController(cfg)
    assert ctl.observe(summary_with(imbalance=2.0)) == "shrink"
    assert ctl.scale == 0.5
    assert ctl.scan_batch_objects == 16
    assert ctl.observe(summary_with(imbalance=2.0)) == "shrink"
    assert ctl.scale == 0.25
    # Clamped at min_batch_scale: no further shrink.
    assert ctl.observe(summary_with(imbalance=2.0)) == "hold"
    assert ctl.scale == 0.25
    assert ctl.shrinks == 2


def test_batch_controller_grows_back_on_dispatch_overhead():
    from repro.gc.engine import BatchController

    ctl = BatchController(adaptive_config())
    ctl.observe(summary_with(imbalance=2.0))
    assert ctl.scale == 0.5
    # overhead_share = 0.4/(1.0+0.4) ~ 0.29 > 0.15 default threshold.
    action = ctl.observe(summary_with(serial=1.0, overhead=0.4))
    assert action == "grow"
    assert ctl.scale == 1.0
    # At full scale, overhead alone never grows past 1.0.
    assert ctl.observe(summary_with(serial=1.0, overhead=0.4)) == "hold"
    assert ctl.grows == 1


def test_batch_controller_never_shrinks_single_worker_cycles():
    from repro.gc.engine import BatchController

    ctl = BatchController(adaptive_config())
    assert ctl.observe(summary_with(workers=1, imbalance=9.0)) == "hold"
    assert ctl.scale == 1.0


def test_adaptive_batching_reduces_wide_pool_imbalance():
    """The acceptance gate: at 8+ workers the controller must beat the
    static batch sizes on the churn workload."""
    points = gc_scaling.run_adaptive_comparison((8,), batches=24)
    p = points[0]
    assert p.shrinks > 0 and p.final_scale < 1.0
    assert p.adaptive_imbalance < p.static_imbalance
    assert p.adaptive_pause_s <= p.static_pause_s


def test_adaptive_runs_stay_deterministic():
    a = gc_scaling.run_churn(8, batches=8, adaptive=True)
    b = gc_scaling.run_churn(8, batches=8, adaptive=True)
    assert gc_timeline_csv(a.collector.stats.cycles) == gc_timeline_csv(
        b.collector.stats.cycles
    )
    scales = [c.batch_scale for c in a.collector.stats.cycles]
    assert scales == [c.batch_scale for c in b.collector.stats.cycles]


# ======================================================================
# Per-phase engine stats (satellite: surfaced in CSV + chrome trace)
# ======================================================================
def test_cycles_carry_per_phase_engine_stats():
    vm = gc_scaling.run_churn(2, batches=6)
    cycles = [c for c in vm.collector.stats.cycles if c.tasks_executed]
    assert cycles
    for cycle in cycles:
        assert cycle.engine_phases
        for rec in cycle.engine_phases:
            assert set(rec) == {
                "phase", "workers", "tasks", "steals", "remote_steals",
                "serial_s", "critical_s", "hidden_s", "idle_s",
                "imbalance",
            }
        assert sum(r["tasks"] for r in cycle.engine_phases) == (
            cycle.tasks_executed
        )
        assert sum(r["steals"] for r in cycle.engine_phases) == cycle.steals


def test_timeline_csv_has_engine_phase_columns():
    vm = gc_scaling.run_churn(2, batches=6)
    text = gc_timeline_csv(vm.collector.stats.cycles)
    header = text.splitlines()[0].split(",")
    for col in (
        "remote_steals", "batch_scale", "concurrent_hidden_s",
        "remark_pause_s", "engine_phases",
    ):
        assert col in header
    assert "minor-copy:" in text


def test_chrome_trace_other_data_has_phase_stats():
    vm = gc_scaling.run_churn(2, batches=6, trace=True)
    doc = json.loads(chrome_trace_json(vm.collector.engine))
    other = doc["otherData"]
    assert other["stealPolicy"] == "steal-one"
    assert other["numaNodes"] == 1
    assert other["remoteSteals"] == 0
    assert other["concurrentHidden"] == 0.0  # PS has no concurrent phase
    stats = other["phaseStats"]
    assert len(stats) == vm.collector.engine.total_phases
    assert sum(r["tasks"] for r in stats) == vm.collector.engine.total_tasks


# ======================================================================
# G1 concurrent-marking series (tentpole: hidden share vs mutator work)
# ======================================================================
def test_g1_marking_hidden_share_rises_with_mutator_work():
    points = gc_scaling.g1_marking_points((0, 2048), rounds=2)
    by_label = {p.label: p for p in points}
    low = by_label["ops=0"]
    high = by_label["ops=2048"]
    stress = by_label["stress"]
    # Mutator-heavy rounds hide a majority of the marking...
    assert high.hidden_share > 0.5
    assert high.hidden_share > low.hidden_share
    # ...while back-to-back majors have no window to hide behind.
    assert stress.mark_critical_s > 0.0
    assert stress.hidden_share == 0.0
    # The remark is a real pause in every configuration.
    assert all(p.remark_s > 0.0 for p in points)


def test_g1_marking_series_deterministic():
    a = harness.digest(gc_scaling.g1_marking_points((512,), rounds=2))
    b = harness.digest(gc_scaling.g1_marking_points((512,), rounds=2))
    assert a == b


# ======================================================================
# TeraHeap stripe ownership bounds H2 scan parallelism (satellite)
# ======================================================================
def test_teraheap_stripes_cap_scan_parallelism():
    points = gc_scaling.teraheap_scan_points((1, 8, 16), phases=6)
    by_threads = {p.gc_threads: p for p in points}
    one, eight, sixteen = (
        by_threads[1], by_threads[8], by_threads[16]
    )
    assert one.scan_workers == 1
    # Stripe ownership: the scan phases never run wider than the stripe
    # count, no matter the thread pool.
    assert eight.scan_workers == gc_scaling.TH_STRIPES
    assert sixteen.scan_workers == gc_scaling.TH_STRIPES
    assert sixteen.scan_speedup <= gc_scaling.TH_STRIPES
    # Plateau: 8 -> 16 threads buys the H2 scan nothing...
    assert sixteen.scan_speedup == pytest.approx(eight.scan_speedup)
    # ...while the plain-PS phases of the same run keep scaling.
    assert sixteen.ps_speedup > sixteen.scan_speedup
    assert eight.scan_speedup > one.scan_speedup
