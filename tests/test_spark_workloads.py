"""Per-workload behavioural tests: each Spark workload exhibits the
memory/IO pattern the paper attributes to it."""

import pytest

from repro import JavaVM, TeraHeapConfig, VMConfig, gb
from repro.devices.nvme import NVMeSSD
from repro.frameworks.spark import CachePolicy, SparkConf, SparkContext
from repro.frameworks.spark.workloads import SPARK_WORKLOADS
from repro.frameworks.spark.workloads.mllib import LARGE_BATCH
from repro.gc.g1 import REGION_SIZE as G1_REGION_SIZE
from repro.units import KiB


def make_ctx(policy=CachePolicy.SD, heap_gb=24, th=False):
    thc = (
        TeraHeapConfig(enabled=True, h2_size=gb(256), region_size=64 * KiB)
        if th
        else TeraHeapConfig()
    )
    vm = JavaVM(
        VMConfig(heap_size=gb(heap_gb), teraheap=thc, page_cache_size=gb(8))
    )
    return SparkContext(
        vm,
        SparkConf(
            cache_policy=policy,
            offheap_device=NVMeSSD(vm.clock),
            num_partitions=32,
        ),
    )


@pytest.mark.parametrize("name", sorted(SPARK_WORKLOADS))
def test_all_workloads_run_under_sd(name):
    ctx = make_ctx()
    SPARK_WORKLOADS[name](ctx, gb(16), scale=0.2)
    assert ctx.vm.elapsed() > 0
    assert not ctx.vm.oom


@pytest.mark.parametrize("name", ["LR", "LgR", "SVM"])
def test_ml_epochs_reaccess_cache(name):
    """ML training reads the whole cached set every epoch."""
    ctx = make_ctx(heap_gb=12)
    SPARK_WORKLOADS[name](ctx, gb(16), scale=0.3)
    # Off-heap partitions deserialized repeatedly (once per epoch).
    assert ctx.block_manager.deserializations > ctx.conf.num_partitions


@pytest.mark.parametrize("name", ["SVM", "BC", "RL"])
def test_humongous_workloads_use_large_batches(name):
    """The G1 fragmentation victims allocate row batches larger than half
    a G1 region."""
    ctx = make_ctx()
    SPARK_WORKLOADS[name](ctx, gb(16), scale=0.2)
    assert LARGE_BATCH > G1_REGION_SIZE // 2
    old = ctx.vm.heap.old.oid_array()
    batches = old[ctx.vm.store.size_view()[old] == LARGE_BATCH]
    assert batches.size, "cached humongous batches should be resident"


def test_tr_uses_fine_grained_chunks():
    """TR's adjacency is dense small objects (high scan factor)."""
    ctx = make_ctx()
    SPARK_WORKLOADS["TR"](ctx, gb(16), scale=0.2)
    store = ctx.vm.store
    scan_factors = {
        store.scan_factor[oid]
        for oid in ctx.vm.heap.old.oid_array().tolist()
        if store.name[oid].startswith("tr-adj")
    }
    assert max(scan_factors, default=0) >= 8.0


def test_graph_workloads_shuffle_each_iteration():
    ctx = make_ctx()
    SPARK_WORKLOADS["PR"](ctx, gb(16), scale=0.5)
    assert ctx.shuffle_manager.shuffles >= 5


def test_cc_shuffle_volume_decays():
    """CC's label propagation shuffles shrink as labels settle."""
    ctx = make_ctx()
    SPARK_WORKLOADS["CC"](ctx, gb(16), scale=0.5)
    # Total shuffled < iterations x initial volume (decay happened).
    iterations = max(2, int(8 * 0.5))
    initial = int(gb(16) * 0.12)
    assert ctx.shuffle_manager.bytes_shuffled < iterations * initial


def test_bc_is_single_pass():
    """Naive Bayes reads its data once or twice, not per-epoch."""
    ctx = make_ctx(heap_gb=12)
    SPARK_WORKLOADS["BC"](ctx, gb(16), scale=0.5)
    # Far fewer deserializations than an iterative ML workload.
    ctx2 = make_ctx(heap_gb=12)
    SPARK_WORKLOADS["LgR"](ctx2, gb(16), scale=0.5)
    assert (
        ctx.block_manager.deserializations
        < ctx2.block_manager.deserializations
    )


def test_sd_breakdown_is_sd_dominated():
    """The paper's premise: GC + S/D dominate the baselines."""
    ctx = make_ctx(heap_gb=14)
    SPARK_WORKLOADS["LR"](ctx, gb(16), scale=0.4)
    b = ctx.vm.breakdown()
    total = sum(b.values())
    gc_sd = b["sd_io"] + b["minor_gc"] + b["major_gc"]
    assert gc_sd / total > 0.5


def test_th_breakdown_shifts_to_other():
    """TeraHeap converts S/D time into direct (device-backed) access."""
    sd = make_ctx(heap_gb=14)
    SPARK_WORKLOADS["LR"](sd, gb(16), scale=0.4)
    th = make_ctx(policy=CachePolicy.TERAHEAP, heap_gb=14, th=True)
    SPARK_WORKLOADS["LR"](th, gb(16), scale=0.4)
    assert th.vm.breakdown()["sd_io"] < sd.vm.breakdown()["sd_io"] * 0.2
    assert (
        th.vm.breakdown()["other"] / th.vm.elapsed()
        > sd.vm.breakdown()["other"] / sd.vm.elapsed()
    )


def test_workload_scale_parameter():
    """scale trims iterations while preserving per-iteration costs."""
    short = make_ctx()
    SPARK_WORKLOADS["PR"](short, gb(16), scale=0.2)
    long = make_ctx()
    SPARK_WORKLOADS["PR"](long, gb(16), scale=1.0)
    assert long.vm.elapsed() > short.vm.elapsed()
