"""Phoenix matrix: executor crash-restart vs lineage recompute.

Spark's fault story is *lineage*: lose an executor, recompute the lost
partitions from the RDD recipe.  TeraHeap adds a second story: cached
partitions living in H2 sit on a durable device, so a successor VM can
recover the committed image and **re-adopt** the blocks instead of
recomputing them.  This experiment measures exactly that trade, by
killing the executor at every interesting point of a cached three-stage
job and driving it to completion through the bounded-restart loop
(:func:`repro.frameworks.spark.recovery.run_job`):

- crash *before* the first durable commit (mid promotion flush, mid
  coalesced H2 flush, between major-GC copy batches): nothing to adopt,
  every persisted block is reported lost and recomputed from lineage;
- crash *after* a commit (mid second epoch commit, mid second header
  batch, at a task boundary of the final pass): the successor re-adopts
  every committed block and recomputes nothing;
- crash with nothing persisted: pure lineage recompute, the Spark
  baseline the paper's Section 2 compares against.

Acceptance, per crash cell: the kill fires, the job completes with
exactly one restart and the crash-free value, the adoption ledger
balances (``adopted + quarantined + lost == persisted blocks``,
``recomputed == quarantined + lost``), post-commit cells adopt
everything and beat the cold-recompute wall whenever they adopted
anything, and the whole cell — walls included — is byte-identical when
run twice (the experiment harness runs every cell twice).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..errors import RetryExhausted, UnrecoverableCrash
from ..faults.plan import FaultConfig
from ..faults.session import RunSession
from ..frameworks.spark import (
    CachePolicy,
    SparkConf,
    SparkContext,
    run_job,
)
from ..metrics.chrome_trace import chrome_trace_json, vm_engine
from ..metrics.trace import resilience_events_csv
from ..runtime import JavaVM
from ..units import gb
from .chaoskill import WORKLOAD_SEED, make_vm
from .harness import Cell, Params, Spec, handle

#: partitions per RDD (also tasks per pass)
NUM_PARTITIONS = 4
#: passes over the cached data; a major GC (and, under ``commit``/
#: ``flush`` writeback, a durable epoch commit) separates them
PASSES = 3
FAULT_SEED = 2207

POLICIES: Tuple[str, ...] = ("commit", "flush")
#: persisted fraction of the lineage chain: 0.0 nothing, 0.5 the
#: expensive middle stage, 1.0 middle and top
FRACTIONS: Tuple[float, ...] = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class CrashSpec:
    """One cell of the sweep: where to kill, and what recovery owes us.

    ``adopts`` is the calibrated expectation: ``True`` when the kill
    lands after the first durable epoch commit (so every persisted
    block must be re-adopted), ``False`` when it lands before (so every
    persisted block must be reported lost and recomputed).
    """

    name: str
    crash_point: Optional[str] = None
    crash_after: int = 1
    crash_stage: Optional[str] = None
    crash_task: int = 1
    adopts: bool = False


#: visit counts calibrated against the 3-pass workload (see the probe
#: table in docs/resilience.md): commits land at the end of each major
#: GC, so the first ``h2_flush``/``promotion_flush``/``major_compact``
#: visits precede any commit while the *second* ``epoch_commit`` and
#: ``region_metadata_update`` visits interrupt commit 2 with commit 1
#: already durable
CRASH_POINTS: Tuple[CrashSpec, ...] = (
    CrashSpec("task-boundary", crash_stage="top", crash_task=10, adopts=True),
    CrashSpec("epoch_commit", crash_point="epoch_commit", crash_after=2,
              adopts=True),
    CrashSpec("region_metadata_update",
              crash_point="region_metadata_update", crash_after=2,
              adopts=True),
    CrashSpec("h2_flush", crash_point="h2_flush", crash_after=1),
    CrashSpec("promotion_flush", crash_point="promotion_flush",
              crash_after=8),
    CrashSpec("major_compact", crash_point="major_compact", crash_after=30),
)
#: with nothing persisted the GC safepoints never run; only the task
#: boundary can kill the executor
NOTHING_PERSISTED_POINTS: Tuple[CrashSpec, ...] = (
    CrashSpec("task-boundary", crash_stage="top", crash_task=10),
)


def build_job(ctx: SparkContext, fraction: float):
    """The three-stage cached job: src -> mid (expensive) -> top.

    ``mid`` costs 10x the compute of the other stages, so losing its
    cached blocks is what hurts — exactly the asymmetry that makes H2
    block survival worth measuring against lineage recompute.
    """
    src = ctx.range_rdd(gb(1), compute_ops_per_chunk=200, name="src")
    mid = src.map(ops_per_chunk=2000, name="mid")
    top = mid.map(ops_per_chunk=200, name="top")
    if fraction >= 0.5:
        mid.persist()
    if fraction >= 1.0:
        top.persist()

    def job() -> int:
        total = 0
        for i in range(PASSES):
            total += top.evaluate()
            if i < PASSES - 1:
                ctx.vm.major_gc()
        return total

    return job


def persisted_blocks(fraction: float) -> int:
    persisted = (1 if fraction >= 0.5 else 0) + (1 if fraction >= 1.0 else 0)
    return persisted * NUM_PARTITIONS


@dataclass
class CellResult:
    """One (crash point, policy, fraction) cell of the matrix."""

    point: str
    policy: str
    fraction: float
    crashed: bool = False
    restarts: int = 0
    value: int = 0
    adopted: int = 0
    quarantined: int = 0
    lost: int = 0
    recomputed: int = 0
    recovery_wall: float = 0.0
    error: str = ""
    report_digests: List[str] = field(default_factory=list)
    #: the VM that finished the job (the successor after a restart)
    vm: Optional[JavaVM] = handle()

    def row(self, cold_wall: float) -> str:
        outcome = self.error.splitlines()[0] if self.error else "ok"
        speedup = (
            f"{cold_wall / self.recovery_wall:5.2f}x"
            if self.recovery_wall > 0
            else "    -"
        )
        return (
            f"{self.point:24s} {self.policy:7s} {self.fraction:4.1f} "
            f"{'crash' if self.crashed else 'ran':6s} "
            f"r={self.restarts} "
            f"adopt={self.adopted:2d} quar={self.quarantined:2d} "
            f"lost={self.lost:2d} recomp={self.recomputed:2d} "
            f"wall={self.recovery_wall:8.4f}s vs cold {speedup} "
            f"{outcome}"
        )


def run_cell(
    spec: CrashSpec,
    policy: str,
    fraction: float,
    workload_seed: int = WORKLOAD_SEED,
    fault_seed: int = FAULT_SEED,
    session: Optional[RunSession] = None,
) -> CellResult:
    result = CellResult(point=spec.name, policy=policy, fraction=fraction)
    fault = FaultConfig(
        seed=workload_seed,
        fault_seed=fault_seed,
        crash_point=spec.crash_point,
        crash_after=spec.crash_after,
        crash_stage=spec.crash_stage,
        crash_task=spec.crash_task,
    )
    vm = make_vm(policy, fault, session)
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP, num_partitions=NUM_PARTITIONS
        ),
    )
    job = build_job(ctx, fraction)
    try:
        job_result = run_job(ctx, job)
    except (RetryExhausted, UnrecoverableCrash) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        result.crashed = True
        return result
    result.value = job_result.value
    result.restarts = job_result.restarts
    result.report_digests = [r.digest() for r in job_result.reports]
    log = ctx.vm.resilience.log
    result.crashed = log.crash_count > 0
    result.adopted = log.adoption_count("adopted")
    result.quarantined = log.adoption_count("quarantined")
    result.lost = log.adoption_count("lost")
    result.recomputed = log.adoption_count("recomputed")
    # The successor VM's clock starts at zero on restart, so its elapsed
    # time is exactly the recovery wall: recover + adopt + finish the
    # job.  Without a crash this is simply the job wall.
    result.recovery_wall = ctx.vm.clock.now
    result.vm = ctx.vm
    return result


@functools.lru_cache(maxsize=None)
def run_baseline(
    policy: str,
    fraction: float,
    workload_seed: int = WORKLOAD_SEED,
    session: Optional[RunSession] = None,
) -> Tuple[int, float]:
    """Crash-free cold run: (value, full-recompute wall); memoised per
    session."""
    vm = make_vm(policy, session=session)
    ctx = SparkContext(
        vm,
        SparkConf(
            cache_policy=CachePolicy.TERAHEAP, num_partitions=NUM_PARTITIONS
        ),
    )
    job = build_job(ctx, fraction)
    return job(), vm.clock.now


def check_cell(
    cell: CellResult,
    spec: CrashSpec,
    baseline_value: int,
    cold_wall: float,
) -> List[str]:
    """The acceptance assertions for one crash cell."""
    where = f"{cell.point}/{cell.policy}/{cell.fraction:g}"
    failures: List[str] = []
    if not cell.crashed:
        return [f"{where}: crash never fired"]
    if cell.error:
        return [f"{where}: {cell.error}"]
    if cell.restarts != 1:
        failures.append(f"{where}: {cell.restarts} restarts, expected 1")
    if cell.value != baseline_value:
        failures.append(
            f"{where}: value {cell.value} != crash-free {baseline_value}"
        )
    expected_blocks = persisted_blocks(cell.fraction)
    accounted = cell.adopted + cell.quarantined + cell.lost
    if accounted != expected_blocks:
        failures.append(
            f"{where}: adoption ledger unbalanced: "
            f"{accounted} accounted != {expected_blocks} persisted"
        )
    if cell.recomputed != cell.quarantined + cell.lost:
        failures.append(
            f"{where}: recomputed {cell.recomputed} != "
            f"quarantined+lost {cell.quarantined + cell.lost}"
        )
    if spec.adopts and cell.adopted != expected_blocks:
        failures.append(
            f"{where}: post-commit crash adopted {cell.adopted} of "
            f"{expected_blocks} committed blocks"
        )
    if not spec.adopts and cell.adopted != 0:
        failures.append(
            f"{where}: pre-commit crash adopted {cell.adopted} blocks "
            "that were never durable"
        )
    if cell.adopted > 0 and cell.recovery_wall >= cold_wall:
        failures.append(
            f"{where}: recovery wall {cell.recovery_wall:.4f}s not below "
            f"cold recompute {cold_wall:.4f}s despite "
            f"{cell.adopted} adopted blocks"
        )
    return failures


def cells_for(fraction: float, smoke: bool) -> Sequence[CrashSpec]:
    if fraction <= 0.0:
        return NOTHING_PERSISTED_POINTS
    if smoke:
        return tuple(
            s for s in CRASH_POINTS
            if s.name in ("task-boundary", "epoch_commit", "h2_flush")
        )
    return CRASH_POINTS


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    policies = ("commit",) if smoke else POLICIES
    fractions = (0.0, 1.0) if smoke else FRACTIONS
    return [
        (
            f"{spec.name}/{policy}/{fraction:g}",
            dict(
                spec=spec, policy=policy, fraction=fraction,
                fault_seed=FAULT_SEED,
            ),
        )
        for policy in policies
        for fraction in fractions
        for spec in cells_for(fraction, smoke)
    ]


def check(cells: List[Cell]) -> List[str]:
    failures: List[str] = []
    for cell in cells:
        p = cell.params
        value, cold_wall = run_baseline(
            p["policy"], p["fraction"], session=cell.session
        )
        failures.extend(check_cell(cell.result, p["spec"], value, cold_wall))
    return failures


def report(cells: List[Cell]) -> str:
    lines = [
        "crash_point              policy  frac fate   restarts "
        "blocks(adopt/quar/lost/recomp)  recovery_wall  outcome"
    ]
    for cell in cells:
        cold_wall = run_baseline(
            cell.result.policy, cell.result.fraction, session=cell.session
        )[1]
        lines.append(cell.result.row(cold_wall))
    return "\n".join(lines)


#: the cell whose crash -> recovery -> restart -> adoption timeline is
#: exported: a task-boundary kill after the first commit, all persisted
EXPORTED = "task-boundary/commit/1"


def _exported_vm(cells: List[Cell]) -> JavaVM:
    return next(c.result.vm for c in cells if c.key == EXPORTED)


def resilience_csv(cells: List[Cell]) -> str:
    return resilience_events_csv(_exported_vm(cells).resilience.log)


def resilience_trace(cells: List[Cell]) -> str:
    vm = _exported_vm(cells)
    return chrome_trace_json(
        vm_engine(vm), label="phoenix", resilience=vm.resilience.log
    )


SPEC = Spec(
    name="phoenix",
    description=(
        "executor crash-restart matrix: H2 block adoption vs "
        "lineage recompute"
    ),
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
    csv=resilience_csv,
    trace=resilience_trace,
)
