"""Task-based parallel GC engine: simulated worker threads over deques.

The engine replaces the old scalar ``parallel_factor(threads)`` fudge.
Collectors decompose each GC phase into a :class:`TaskBag` of costed
tasks, and :class:`GCTaskEngine` schedules them over simulated worker
lanes with seeded work stealing; the pause charged to the mutator is the
critical path over the lanes.
"""

from .engine import (
    ENGINE_SEED,
    GCTaskEngine,
    ParallelCycleSummary,
    PhaseExecution,
    WorkerStats,
    summarize_executions,
)
from .tasks import GCTask, TaskBag, chunked_sweep

__all__ = [
    "ENGINE_SEED",
    "GCTask",
    "GCTaskEngine",
    "ParallelCycleSummary",
    "PhaseExecution",
    "TaskBag",
    "WorkerStats",
    "chunked_sweep",
    "summarize_executions",
]
