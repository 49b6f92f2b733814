"""Collector interface and GC statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..heap.store import MAX_EPOCH, HeapStore

#: minor-GC survivals before promotion to the old generation
TENURING_THRESHOLD = 2


@dataclass
class GCCycle:
    """One GC cycle's record, feeding Figures 7 and 11(b)."""

    kind: str  # "minor" | "major"
    start_time: float
    duration: float
    live_bytes: int = 0
    reclaimed_bytes: int = 0
    promoted_bytes: int = 0
    moved_to_h2_bytes: int = 0
    old_occupancy_after: float = 0.0
    #: major-GC phase durations: marking / precompact / adjust / compact
    phases: Dict[str, float] = field(default_factory=dict)

    # --- task-based parallel engine observability ----------------------
    #: configured GC worker threads for this cycle
    gc_threads: int = 1
    #: engine tasks executed across the cycle's parallel phases
    tasks_executed: int = 0
    #: successful work steals across the cycle
    steals: int = 0
    #: summed per-worker idle time (gap to the critical path)
    idle_seconds: float = 0.0
    #: critical path over mean active lane time (1.0 = balanced)
    imbalance: float = 1.0
    #: sum of raw task costs — what one worker would have executed
    parallel_serial_seconds: float = 0.0
    #: summed critical paths — the engine's schedule length (concurrent
    #: phases may hide part of this behind the mutator, see
    #: ``concurrent_hidden``)
    parallel_seconds: float = 0.0
    #: critical-path seconds hidden behind mutator overlap: concurrent
    #: marking work that raced ``Bucket.OTHER`` progress and charged
    #: nothing to the pause
    concurrent_hidden: float = 0.0
    #: the stop-the-world remark pause closing a concurrent marking
    #: cycle (G1 only; 0 for collectors without concurrent phases)
    remark_pause: float = 0.0
    worker_busy: List[float] = field(default_factory=list)
    worker_idle: List[float] = field(default_factory=list)
    worker_steals: List[int] = field(default_factory=list)
    #: per-phase engine stat records (PhaseExecution.stat_record dicts)
    engine_phases: List[Dict] = field(default_factory=list)


@dataclass
class GCStats:
    """Aggregated collector statistics."""

    cycles: List[GCCycle] = field(default_factory=list)

    def record(self, cycle: GCCycle) -> None:
        self.cycles.append(cycle)

    def count(self, kind: str) -> int:
        return sum(1 for c in self.cycles if c.kind == kind)

    def total_time(self, kind: str) -> float:
        return sum(c.duration for c in self.cycles if c.kind == kind)

    def mean_time(self, kind: str) -> float:
        n = self.count(kind)
        return self.total_time(kind) / n if n else 0.0

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for cycle in self.cycles:
            for phase, duration in cycle.phases.items():
                totals[phase] = totals.get(phase, 0.0) + duration
        return totals

    # --- parallel-engine aggregates ------------------------------------
    def total_tasks(self, kind: str = "") -> int:
        return sum(
            c.tasks_executed
            for c in self.cycles
            if not kind or c.kind == kind
        )

    def total_steals(self, kind: str = "") -> int:
        return sum(
            c.steals for c in self.cycles if not kind or c.kind == kind
        )

    def total_idle(self, kind: str = "") -> float:
        return sum(
            c.idle_seconds
            for c in self.cycles
            if not kind or c.kind == kind
        )

    def mean_imbalance(self, kind: str = "") -> float:
        """Parallel-time-weighted mean imbalance over cycles with tasks."""
        weight = 0.0
        acc = 0.0
        for c in self.cycles:
            if (kind and c.kind != kind) or c.parallel_seconds <= 0.0:
                continue
            acc += c.imbalance * c.parallel_seconds
            weight += c.parallel_seconds
        return acc / weight if weight > 0.0 else 1.0

    @property
    def minor_count(self) -> int:
        return self.count("minor")

    @property
    def major_count(self) -> int:
        return self.count("major")


class Collector:
    """Base collector: subclasses implement ``minor_gc`` and ``major_gc``.

    The VM calls ``minor_gc`` when eden fills and ``major_gc`` when the
    heap cannot satisfy promotion or allocation.
    """

    name = "collector"

    def __init__(self, store: HeapStore) -> None:
        self.stats = GCStats()
        #: the struct-of-arrays store backing this VM's objects; trace
        #: kernels index its flat columns instead of chasing handles.
        self.store = store
        self.mark_epoch = 0
        #: engine phase executions of the in-flight cycle
        self._cycle_execs: list = []

    def next_epoch(self) -> int:
        """A fresh mark epoch; raises before it outgrows the store's
        int32 ``mark_epoch`` column."""
        if self.mark_epoch >= MAX_EPOCH:
            raise OverflowError(f"mark epoch would pass {MAX_EPOCH}")
        self.mark_epoch += 1
        return self.mark_epoch

    # -- parallel-engine plumbing --------------------------------------
    def begin_parallel_cycle(self) -> None:
        self._cycle_execs = []

    def note_execution(self, execution) -> None:
        self._cycle_execs.append(execution)

    def apply_parallel_stats(self, cycle: GCCycle, workers: int) -> None:
        """Fold the cycle's engine executions into its GCCycle record."""
        from .engine import summarize_executions

        summary = summarize_executions(self._cycle_execs, workers)
        cycle.gc_threads = workers
        cycle.tasks_executed = summary.tasks
        cycle.steals = summary.steals
        cycle.idle_seconds = summary.idle_seconds
        cycle.imbalance = summary.imbalance
        cycle.parallel_serial_seconds = summary.serial_seconds
        cycle.parallel_seconds = summary.parallel_seconds
        cycle.concurrent_hidden = summary.hidden_seconds
        cycle.worker_busy = summary.worker_busy
        cycle.worker_idle = summary.worker_idle
        cycle.worker_steals = summary.worker_steals
        cycle.engine_phases = [e.stat_record() for e in self._cycle_execs]
        self._cycle_execs = []

    # -- interface ------------------------------------------------------
    def minor_gc(self) -> GCCycle:  # pragma: no cover - interface
        raise NotImplementedError

    def major_gc(self) -> GCCycle:  # pragma: no cover - interface
        raise NotImplementedError
