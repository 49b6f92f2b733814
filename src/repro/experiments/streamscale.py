"""Streamscale matrix: block streaming vs whole-RDD materialisation.

Whole-RDD evaluation materialises every lineage stage per task batch, so
the executor's live set scales with the *input*; the block-streaming
executor (:mod:`repro.frameworks.spark.streaming`) bounds it at
``max_inflight_blocks x target_block_bytes`` and spills in-flight blocks
to H2 under pressure instead of recomputing them.  That trade has a
crossover, and this experiment measures it by running the same cached
three-stage pipeline both ways over a sweep of input sizes and in-flight
budgets against one fixed heap:

- **small inputs**: everything fits; streaming's per-block dispatch tax
  is pure overhead and the whole-RDD run wins;
- **large inputs**: the whole-RDD live set (3x the input, pinned per
  task batch) drowns the collector in near-full-heap GCs, while the
  streaming run stays flat and wins despite its spill traffic.

Acceptance, per cell: both executions produce the identical action
value; the streaming run's peak in-flight bytes never exceed its budget
(and no admission was forced past it); the largest input of each budget
column streams *faster* than whole-RDD while the smallest streams
*slower* (the measurable overhead); and every cell — walls included — is
byte-identical when run twice (the experiment harness runs it twice).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..clock import Bucket
from ..config import TeraHeapConfig, VMConfig
from ..faults.session import RunSession
from ..frameworks.spark import (
    CachePolicy,
    SparkConf,
    SparkContext,
    StreamResult,
)
from ..metrics.chrome_trace import chrome_trace_json, vm_engine
from ..metrics.trace import streaming_blocks_csv
from ..runtime import JavaVM
from ..units import KiB, fmt_bytes, gb
from .harness import Cell, Params, Spec, handle

#: partitions per RDD; with 8 mutator threads one batch covers them all,
#: which is exactly the whole-RDD pinning the streaming executor removes
NUM_PARTITIONS = 4
HEAP_BYTES = gb(4)
REGION_SIZE = 64 * KiB
PROMOTION_BUFFER = 32 * KiB
#: streamed block target: small enough that every sweep partition splits
#: into multiple blocks, so budgets and spills are actually exercised
TARGET_BLOCK_BYTES = 32 * KiB

#: input sweep (paper-scale GB) against the fixed heap: the smallest
#: cell fits trivially, the largest pins ~3x its bytes per task batch
INPUT_SIZES_GB: Tuple[float, ...] = (0.125, 0.5, 1.25)
#: in-flight budget sweep, in blocks
INFLIGHT_BLOCKS: Tuple[int, ...] = (2, 8)


def make_vm(session: Optional[RunSession] = None) -> JavaVM:
    return JavaVM(
        VMConfig(
            heap_size=HEAP_BYTES,
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=gb(32),
                region_size=REGION_SIZE,
                promotion_buffer_size=PROMOTION_BUFFER,
            ),
            page_cache_size=gb(4),
        ),
        session=session,
    )


def make_ctx(
    max_inflight_blocks: int, session: Optional[RunSession] = None
) -> SparkContext:
    return SparkContext(
        make_vm(session),
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP,
            num_partitions=NUM_PARTITIONS,
            max_inflight_blocks=max_inflight_blocks,
            target_block_bytes=TARGET_BLOCK_BYTES,
        ),
    )


def build_pipeline(ctx: SparkContext, input_gb: float):
    """The cached pipeline: src -> mid -> top (persisted)."""
    src = ctx.range_rdd(gb(input_gb), compute_ops_per_chunk=64, name="src")
    mid = src.map(ops_per_chunk=64, name="mid")
    top = mid.map(ops_per_chunk=64, name="top")
    top.persist()
    return top


@dataclass
class CellResult:
    """One (input size, in-flight budget) cell, both executions."""

    input_gb: float
    inflight_blocks: int
    budget_bytes: int = 0
    baseline_value: int = 0
    baseline_wall: float = 0.0
    baseline_gc: float = 0.0
    streaming_value: int = 0
    streaming_wall: float = 0.0
    streaming_gc: float = 0.0
    blocks: int = 0
    peak_inflight: int = 0
    stalls: int = 0
    stall_seconds: float = 0.0
    spills: int = 0
    spill_bytes: int = 0
    unspills: int = 0
    forced: int = 0
    hidden_seconds: float = 0.0
    #: the streaming run's VM and result, for the CSV/trace artifacts
    vm: Optional[JavaVM] = handle()
    stream: Optional[StreamResult] = handle()

    def row(self) -> str:
        ratio = (
            self.baseline_wall / self.streaming_wall
            if self.streaming_wall > 0
            else 0.0
        )
        return (
            f"{self.input_gb:6.3f} {self.inflight_blocks:3d} "
            f"{fmt_bytes(self.budget_bytes):>9s} "
            f"rdd={self.baseline_wall:8.4f}s (gc {self.baseline_gc:7.4f}s) "
            f"stream={self.streaming_wall:8.4f}s "
            f"(gc {self.streaming_gc:7.4f}s) "
            f"x{ratio:5.2f} "
            f"blk={self.blocks:4d} peak={fmt_bytes(self.peak_inflight):>9s} "
            f"stall={self.stalls:3d} spill={self.spills:3d} "
            f"unspill={self.unspills:3d}"
        )


def gc_seconds(vm: JavaVM) -> float:
    clock = vm.clock
    return (
        clock.total(Bucket.MINOR_GC)
        + clock.total(Bucket.MAJOR_GC)
        + clock.total(Bucket.ALLOC_STALL)
    )


def run_cell(
    input_gb: float,
    inflight_blocks: int,
    session: Optional[RunSession] = None,
) -> CellResult:
    cell = CellResult(input_gb=input_gb, inflight_blocks=inflight_blocks)
    # Whole-RDD baseline: its own VM, so the streaming run sees an
    # identical cold executor.
    ctx = make_ctx(inflight_blocks, session)
    top = build_pipeline(ctx, input_gb)
    cell.baseline_value = top.evaluate()
    cell.baseline_wall = ctx.vm.clock.now
    cell.baseline_gc = gc_seconds(ctx.vm)
    # Streaming run.
    ctx = make_ctx(inflight_blocks, session)
    top = build_pipeline(ctx, input_gb)
    cell.budget_bytes = ctx.conf.inflight_budget_bytes
    result = run_streaming(ctx, top)
    cell.streaming_value = result.total_bytes
    cell.streaming_wall = ctx.vm.clock.now
    cell.streaming_gc = gc_seconds(ctx.vm)
    cell.blocks = result.blocks
    cell.peak_inflight = result.peak_inflight_bytes
    cell.stalls = result.backpressure_stalls
    cell.stall_seconds = result.stall_seconds
    cell.spills = result.spills
    cell.spill_bytes = result.spill_bytes
    cell.unspills = result.unspills
    cell.forced = result.forced_admissions
    cell.hidden_seconds = result.hidden_seconds
    cell.vm, cell.stream = ctx.vm, result
    return cell


def run_streaming(ctx: SparkContext, top) -> StreamResult:
    from ..frameworks.spark.streaming import StreamingExecutor

    return StreamingExecutor(ctx).run(top)


def check_cells(cells: List[CellResult]) -> List[str]:
    """Acceptance assertions over one completed matrix."""
    failures: List[str] = []
    by_budget = {}
    for cell in cells:
        by_budget.setdefault(cell.inflight_blocks, []).append(cell)
        where = f"{cell.input_gb:g}GB/{cell.inflight_blocks}blk"
        if cell.streaming_value != cell.baseline_value:
            failures.append(
                f"{where}: streaming value {cell.streaming_value} != "
                f"whole-RDD {cell.baseline_value}"
            )
        if cell.forced:
            failures.append(
                f"{where}: {cell.forced} forced admissions past the budget"
            )
        if cell.peak_inflight > cell.budget_bytes:
            failures.append(
                f"{where}: peak in-flight {cell.peak_inflight} B exceeds "
                f"budget {cell.budget_bytes} B"
            )
    for blocks, column in by_budget.items():
        column = sorted(column, key=lambda c: c.input_gb)
        smallest, largest = column[0], column[-1]
        if smallest.streaming_wall <= smallest.baseline_wall:
            failures.append(
                f"{smallest.input_gb:g}GB/{blocks}blk: streaming "
                f"({smallest.streaming_wall:.4f}s) shows no overhead over "
                f"whole-RDD ({smallest.baseline_wall:.4f}s) at the "
                "smallest input"
            )
        if largest.streaming_wall >= largest.baseline_wall:
            failures.append(
                f"{largest.input_gb:g}GB/{blocks}blk: streaming "
                f"({largest.streaming_wall:.4f}s) does not beat whole-RDD "
                f"({largest.baseline_wall:.4f}s) at the largest input"
            )
    return failures


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    sizes = (
        (INPUT_SIZES_GB[0], INPUT_SIZES_GB[-1]) if smoke else INPUT_SIZES_GB
    )
    budgets = (INFLIGHT_BLOCKS[-1],) if smoke else INFLIGHT_BLOCKS
    return [
        (
            f"{input_gb:g}GB/{blocks}blk",
            dict(input_gb=input_gb, inflight_blocks=blocks),
        )
        for blocks in budgets
        for input_gb in sizes
    ]


def report(cells: List[Cell]) -> str:
    lines = [
        f"streamscale: heap {fmt_bytes(HEAP_BYTES)}, "
        f"{NUM_PARTITIONS} partitions, "
        f"block target {fmt_bytes(TARGET_BLOCK_BYTES)}",
        "input  blk    budget  whole-RDD wall (gc)        "
        "streaming wall (gc)      speedup  streaming counters",
    ]
    lines.extend(cell.result.row() for cell in cells)
    return "\n".join(lines)


def blocks_csv(cells: List[Cell]) -> str:
    """The largest cell's per-block streaming ledger."""
    return streaming_blocks_csv(cells[-1].result.stream)


def inflight_trace(cells: List[Cell]) -> str:
    """The largest cell's chrome trace, with the in-flight counter track."""
    cell = cells[-1].result
    return chrome_trace_json(
        vm_engine(cell.vm), label="streamscale", streaming=cell.stream
    )


SPEC = Spec(
    name="streamscale",
    description=(
        "block-streaming vs whole-RDD crossover: input size x "
        "in-flight budget"
    ),
    cells=cells,
    run_cell=run_cell,
    check=lambda cells: check_cells([cell.result for cell in cells]),
    report=report,
    csv=blocks_csv,
    trace=inflight_trace,
)
