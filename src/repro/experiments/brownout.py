"""Brownout chaos-soak: device brownouts vs. the H2 governor.

A Spark-style caching workload (TERAHEAP policy: every cached partition
is tagged and migrated to H2) runs while the backing device browns out —
a scheduled window of simulated time during which every device op costs
``1/fraction`` times its clean cost and H2 region allocations are
denied.  The matrix crosses brownout *duration* (as a fraction of the
clean run time) with the H2 governor on/off:

- **governor off** (the ungoverned control): every major GC keeps
  aiming transfers at the browned-out device; the denials burn through
  the resilience failure budget, H2 transfers degrade *permanently*,
  the cache pins itself in H1, and the run dies with a modeled
  ``OutOfMemoryError`` (or limps across the line with large stalls).
- **governor on**: the device-health watchdog sees the cost-ratio EWMA
  blow its SLO, the circuit trips OPEN, transfers halt before the
  failure budget is touched, the block manager falls back to
  serialized-on-heap caching (recompute penalty when the budget is
  full), and emergency backpressure (shed + stall + full GC, charged to
  ``Bucket.ALLOC_STALL``) absorbs the pressure spike instead of dying.
  After the window, half-open probes re-close the circuit and caching
  returns to H2.

The experiment harness runs every cell twice, and the whole result —
including ``CellResult.digest``, which carries the fault schedule and
the circuit/health timelines from inside the VM — must be
byte-identical across the two runs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from random import Random
from typing import List, Optional, Tuple

from ..clock import Bucket
from ..config import GovernorConfig, TeraHeapConfig, VMConfig
from ..devices.base import AccessPattern
from ..errors import OutOfMemoryError
from ..faults.plan import FaultConfig
from ..faults.session import RunSession
from ..frameworks.spark.block_manager import BlockManager
from ..frameworks.spark.conf import CachePolicy, SparkConf
from ..frameworks.spark.rdd import MaterializedPartition
from ..runtime import JavaVM
from ..units import KiB, gb
from .harness import Cell, Params, Spec

#: workload shape (sizes are simulated bytes — the repo's scaled units)
HEAP = gb(2.5)
H2_SIZE = gb(64)
REGION_SIZE = 32 * KiB
PAGE_CACHE = 256 * KiB
NUM_RDDS = 6
CHUNKS = 10
CHUNK_SIZE = 16 * KiB
STEPS = 30
GC_EVERY = 3
TOUCHES = 2
WORKLOAD_SEED = 23
FAULT_SEED = 1861

#: brownout window: service fraction and start point (of clean runtime)
BROWNOUT_FRACTION = 0.5
WINDOW_START = 0.30
#: window durations swept, as fractions of the clean runtime
DURATIONS: Tuple[float, ...] = (0.15, 0.40)

#: The legacy failure budget sits between the governed run's denial
#: count (a handful, before the circuit trips) and the ungoverned run's
#: (every mover region of every window GC): with the governor the budget
#: is never reached; without it transfers degrade *permanently*, the
#: rooted cache pins itself in H1 and the old generation eventually
#: overflows.
FAILURE_BUDGET = 12


class _RDDHandle:
    """Duck-typed stand-in for :class:`~repro.frameworks.spark.rdd.RDD`.

    The block manager only needs ``rdd_id`` / ``cache_label`` / ``name``;
    building real RDDs would drag in a SparkContext this soak does not
    want.
    """

    def __init__(self, rdd_id: int):
        self.rdd_id = rdd_id
        self.name = f"rdd-{rdd_id}"
        self.cache_label = f"rdd-{rdd_id}"


def make_vm(
    governor: bool,
    windows: Tuple[Tuple[float, float, float], ...],
    probe_backoff: float = 5e-3,
    session: Optional[RunSession] = None,
) -> JavaVM:
    fault = FaultConfig(
        seed=WORKLOAD_SEED,
        fault_seed=FAULT_SEED,
        brownout_windows=windows,
        failure_budget=FAILURE_BUDGET,
    )
    gov = None
    if governor:
        gov = GovernorConfig(
            probe_backoff=probe_backoff,
            probe_backoff_max=32 * probe_backoff,
        )
    return JavaVM(
        VMConfig(
            heap_size=HEAP,
            teraheap=TeraHeapConfig(
                enabled=True,
                h2_size=H2_SIZE,
                region_size=REGION_SIZE,
            ),
            page_cache_size=PAGE_CACHE,
            faults=fault,
            governor=gov,
        ),
        session=session,
    )


class Workload:
    """Steady caching + re-reading: the chaos-soak's mutator.

    Each step materialises and caches one fresh partition (cycling over
    ``NUM_RDDS`` labels), touches ``TOUCHES`` previously cached
    partitions chunk by chunk with random access (H2-resident reads go
    through the page cache to the device — the health monitor's feed),
    and every ``GC_EVERY`` steps runs a major GC so tagged groups
    migrate to H2.
    """

    def __init__(self, vm: JavaVM, seed: int):
        self.vm = vm
        self.rdds = [_RDDHandle(i) for i in range(NUM_RDDS)]
        self.bm = BlockManager(
            vm,
            SparkConf(
                cache_policy=CachePolicy.TERAHEAP,
                storage_fraction=0.3,
            ),
        )
        self.rng = Random(seed)
        self.live: List[Tuple[_RDDHandle, int, MaterializedPartition]] = []
        self.completed_steps = 0

    def _compute(self, rdd: _RDDHandle, index: int):
        vm = self.vm

        def build(_: int) -> MaterializedPartition:
            with vm.roots.frame() as frame:
                chunks = [
                    frame.push(
                        vm.allocate(
                            CHUNK_SIZE, name=f"{rdd.name}-p{index}-c{j}"
                        )
                    )
                    for j in range(CHUNKS)
                ]
                root = vm.allocate(
                    256, refs=chunks, name=f"{rdd.name}-p{index}"
                )
            return MaterializedPartition(root=root, chunks=chunks)

        return build

    def run_step(self, step: int) -> None:
        vm = self.vm
        rdd = self.rdds[step % NUM_RDDS]
        index = step // NUM_RDDS
        part = self.bm.get_or_compute(rdd, index, self._compute(rdd, index))
        self.live.append((rdd, index, part))
        # Re-read older cached partitions: the steady analytical scans
        # that (a) make recomputes/deserializations measurable and (b)
        # stream device reads past the health monitor.
        for _ in range(min(TOUCHES, len(self.live) - 1)):
            pick = self.rng.randrange(len(self.live) - 1)
            old_rdd, old_index, _ = self.live[pick]
            cached = self.bm.get_or_compute(
                old_rdd, old_index, self._compute(old_rdd, old_index)
            )
            vm.read_objects(cached.chunks, AccessPattern.RANDOM)
        vm.compute(64)
        if (step + 1) % GC_EVERY == 0:
            vm.major_gc()
        self.completed_steps = step + 1


# ======================================================================
# One matrix cell
# ======================================================================
@dataclass
class CellResult:
    governor: bool
    duration_frac: float
    steps_target: int = STEPS
    oom: bool = False
    completed_steps: int = 0
    elapsed: float = 0.0
    stall_s: float = 0.0
    alloc_stall_s: float = 0.0
    alloc_stalls: int = 0
    emergency_gcs: int = 0
    sheds: int = 0
    recomputes: int = 0
    deserializations: int = 0
    governor_fallbacks: int = 0
    transfers_denied: int = 0
    h2_degraded: bool = False
    trips: int = 0
    probes: int = 0
    circuit_states: List[str] = field(default_factory=list)
    heap_report: str = ""
    digest: str = ""

    @property
    def label(self) -> str:
        return (
            f"gov={'on' if self.governor else 'off'}"
            f"/dur={self.duration_frac:g}"
        )

    def row(self) -> str:
        fate = "OOM" if self.oom else "ok"
        timeline = (
            "->".join(["closed"] + self.circuit_states)
            if self.circuit_states
            else "closed"
        )
        return (
            f"{self.label:16s} {fate:4s} "
            f"steps={self.completed_steps:2d}/{self.steps_target} "
            f"t={self.elapsed:7.3f}s stall={self.stall_s:8.5f}s "
            f"shed={self.sheds:2d} recomp={self.recomputes:2d} "
            f"deser={self.deserializations:2d} denied={self.transfers_denied:3d} "
            f"trips={self.trips} probes={self.probes} "
            f"circuit={timeline}"
        )


def _digest(vm: JavaVM, result: CellResult) -> str:
    """The VM-internal timelines no other field records, plus counters."""
    parts = ["[fault-schedule]"]
    if vm.resilience is not None:
        parts.append(vm.resilience.plan.schedule_digest())
    parts.append("[health]")
    if vm.health is not None:
        parts.append(vm.health.digest())
    parts.append("[circuit]")
    if vm.governor is not None:
        parts.append(vm.governor.timeline_digest())
    parts.append("[counters]")
    parts.append(
        f"oom={result.oom} steps={result.completed_steps} "
        f"elapsed={result.elapsed:.6f} stall={result.stall_s:.6f} "
        f"alloc_stalls={result.alloc_stalls} sheds={result.sheds} "
        f"recomputes={result.recomputes} deser={result.deserializations} "
        f"fallbacks={result.governor_fallbacks} "
        f"denied={result.transfers_denied} trips={result.trips} "
        f"probes={result.probes}"
    )
    return "\n".join(parts)


@functools.lru_cache(maxsize=None)
def clean_runtime(
    steps: int = STEPS, session: Optional[RunSession] = None
) -> float:
    """Simulated seconds of a brownout-free, governed run (calibration;
    memoised per session: every cell of a matrix shares it)."""
    vm = make_vm(governor=True, windows=(), session=session)
    workload = Workload(vm, WORKLOAD_SEED)
    for step in range(steps):
        workload.run_step(step)
    return vm.elapsed()


def run_cell(
    governor: bool,
    duration_frac: float,
    t_clean: float,
    steps: int = STEPS,
    session: Optional[RunSession] = None,
) -> CellResult:
    result = CellResult(
        governor=governor, duration_frac=duration_frac, steps_target=steps
    )
    windows = (
        (WINDOW_START * t_clean, duration_frac * t_clean, BROWNOUT_FRACTION),
    )
    vm = make_vm(
        governor,
        windows,
        probe_backoff=max(0.02 * t_clean, 1e-4),
        session=session,
    )
    workload = Workload(vm, WORKLOAD_SEED)
    try:
        for step in range(steps):
            workload.run_step(step)
    except OutOfMemoryError as oom:
        result.oom = True
        result.heap_report = oom.heap_report
    result.completed_steps = workload.completed_steps
    result.elapsed = vm.elapsed()
    summary = (
        vm.resilience.log.summary() if vm.resilience is not None else {}
    )
    result.alloc_stall_s = vm.clock.total(Bucket.ALLOC_STALL)
    result.stall_s = (
        summary.get("backoff_seconds", 0.0) + result.alloc_stall_s
    )
    result.alloc_stalls = vm.alloc_stalls
    result.emergency_gcs = vm.emergency_gcs
    result.sheds = workload.bm.sheds
    result.recomputes = workload.bm.recomputes
    result.deserializations = workload.bm.deserializations
    result.governor_fallbacks = workload.bm.governor_fallbacks
    result.transfers_denied = getattr(
        vm.collector, "h2_transfers_denied", 0
    )
    result.h2_degraded = (
        vm.resilience.degraded if vm.resilience is not None else False
    )
    if vm.governor is not None:
        result.trips = vm.governor.trips
        result.probes = vm.governor.probes
        result.circuit_states = [
            t.new.value for t in vm.governor.transitions
        ]
    result.digest = _digest(vm, result)
    return result


# ======================================================================
# The gated experiment
# ======================================================================
def run_calibrated(
    governor: bool,
    duration_frac: float,
    steps: int = STEPS,
    session: Optional[RunSession] = None,
) -> CellResult:
    """One cell, its window placed against the clean runtime."""
    t_clean = clean_runtime(steps, session=session)
    return run_cell(governor, duration_frac, t_clean, steps, session)


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    durations = (0.25,) if smoke else DURATIONS
    steps = 26 if smoke else STEPS
    return [
        (
            f"gov={'on' if governor else 'off'}/dur={duration:g}",
            dict(governor=governor, duration_frac=duration, steps=steps),
        )
        for duration in durations
        for governor in (True, False)
    ]


def check(cells: List[Cell]) -> List[str]:
    """The governed run survives every window with bounded stall time;
    the ungoverned control either dies or stalls at least twice as long.
    """
    failures: List[str] = []
    by = {(c.result.governor, c.result.duration_frac): c.result for c in cells}
    for (governor, duration), on in by.items():
        if not governor:
            continue
        off = by[(False, duration)]
        steps = on.steps_target
        if on.oom:
            failures.append(f"{on.label}: governed run OOMed")
        if on.completed_steps < steps:
            failures.append(
                f"{on.label}: governed run finished only "
                f"{on.completed_steps}/{steps} steps"
            )
        if on.stall_s > 0.25 * on.elapsed:
            failures.append(
                f"{on.label}: stall time {on.stall_s:.4f}s is not bounded "
                f"(>25% of {on.elapsed:.4f}s)"
            )
        if not off.oom and off.stall_s < 2.0 * max(on.stall_s, 1e-9):
            failures.append(
                f"{off.label}: ungoverned control neither OOMed nor "
                f"stalled >=2x the governed run "
                f"({off.stall_s:.6f}s vs {on.stall_s:.6f}s)"
            )
        if on.trips < 1:
            failures.append(f"{on.label}: circuit never tripped")
    return failures


def report(cells: List[Cell]) -> str:
    t_clean = clean_runtime(
        cells[0].params["steps"], session=cells[0].session
    )
    lines = [
        f"clean runtime: {t_clean:.3f}s simulated; window opens at "
        f"{WINDOW_START:.0%}, service fraction {BROWNOUT_FRACTION:g}",
        "",
    ]
    lines.extend(cell.result.row() for cell in cells)
    return "\n".join(lines)


SPEC = Spec(
    name="brownout",
    description="brownout-duration x governor on/off chaos soak",
    cells=cells,
    run_cell=run_calibrated,
    check=check,
    report=report,
)
