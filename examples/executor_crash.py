"""Executor crash-restart end-to-end: the fault plan kills the executor
mid-job, a successor VM recovers the durable H2 image, the rebuilt block
manager re-adopts every committed cached partition, and lineage
recomputes whatever did not survive.

Builds a cached three-stage mini-Spark job (``src -> mid -> top``, the
middle stage deliberately expensive), schedules a kill at task 6 of the
final stage — after a major GC committed the cache to H2 — and drives
the job to completion through the bounded-restart loop, printing the
crash/recovery/adoption timeline as it unfolds.  Then points at the
``phoenix`` experiment for the full crash-point x policy x
persisted-fraction matrix.

Run:  python examples/executor_crash.py
"""

from repro import FaultConfig, JavaVM, TeraHeapConfig, VMConfig, gb
from repro.faults import AdoptionEvent, CrashEvent
from repro.frameworks.spark import (
    CachePolicy,
    SparkConf,
    SparkContext,
    run_job,
)
from repro.units import KiB


def make_vm(fault=None) -> JavaVM:
    return JavaVM(
        VMConfig(
            heap_size=gb(8),
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(64),
                region_size=64 * KiB,
                promotion_buffer_size=32 * KiB,
                writeback_policy="commit",  # durable epoch per major GC
            ),
            page_cache_size=gb(8),
            faults=fault,
            audit="full",
        )
    )


def build(ctx: SparkContext):
    src = ctx.range_rdd(gb(1), compute_ops_per_chunk=200, name="src")
    mid = src.map(ops_per_chunk=2000, name="mid").persist()
    top = mid.map(ops_per_chunk=200, name="top")
    return mid, top


def main() -> None:
    # ------------------------------------------------------------------
    # Cold baseline: the same job on a crash-free VM.
    # ------------------------------------------------------------------
    ctx = SparkContext(
        make_vm(),
        SparkConf(cache_policy=CachePolicy.TERAHEAP, num_partitions=4),
    )
    _, top = build(ctx)
    baseline = top.evaluate()
    ctx.vm.major_gc()
    baseline += top.evaluate()
    cold_wall = ctx.vm.clock.now
    print(f"crash-free run: value={baseline} wall={cold_wall:.4f}s")

    # ------------------------------------------------------------------
    # Crashed run: die at task 6 of stage "top" — i.e. in the second
    # pass, after the major GC committed the cached blocks to H2.
    # ------------------------------------------------------------------
    fault = FaultConfig(seed=11, crash_stage="top", crash_task=6)
    ctx = SparkContext(
        make_vm(fault),
        SparkConf(cache_policy=CachePolicy.TERAHEAP, num_partitions=4),
    )
    mid, top = build(ctx)

    def job() -> int:
        total = top.evaluate()
        ctx.vm.major_gc()
        return total + top.evaluate()

    result = run_job(ctx, job)

    print(f"\nsurvived {result.restarts} executor crash(es):")
    for report in result.reports:
        print(f"  [restart] {report.describe()}")
        print(f"            committed epoch {report.recovery.committed_epoch}")
    log = ctx.vm.resilience.log
    for ev in log.of(CrashEvent):
        print(f"  [crash]   t={ev.time:.4f}s at {ev.safepoint}: {ev.detail}")
    for ev in log.of(AdoptionEvent):
        print(f"  [adopt]   {ev.label}: {ev.outcome} {ev.detail}")

    recovery_wall = ctx.vm.clock.now
    assert result.value == baseline, "recovered value must be crash-free-exact"
    print(
        f"\nvalue={result.value} (crash-free-exact), recovery "
        f"wall={recovery_wall:.4f}s vs cold recompute {cold_wall:.4f}s "
        f"({cold_wall / recovery_wall:.2f}x) — "
        f"{ctx.block_manager.adoptions} blocks re-adopted from H2, "
        f"{ctx.block_manager.recomputes} recomputed from lineage"
    )
    print(
        "\nfull matrix (crash point x writeback policy x persisted "
        "fraction):\n  python -m repro phoenix"
    )


if __name__ == "__main__":
    main()
