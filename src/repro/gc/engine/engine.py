"""Deterministic simulated GC thread pool with work stealing.

Workers pull tasks from per-thread deques (owners from the front,
thieves from the back), steal from a seeded-RNG-chosen victim when their
own deque drains, and run a termination protocol once no work remains.
Time advances on the multi-lane clock: each worker has its own lane and
the mutator pause is the critical path, so thread-scaling behaviour —
speedup, load imbalance, steal and termination overhead — is an output
of the simulation instead of a ``threads ** 0.8`` assumption.

A steal takes one task off the back of a victim's deque and costs
``CostModel.gc_steal_cost``; the victim is drawn uniformly from the
workers whose deques still hold work.  The pool has no memory topology:
every lane is equally far from every deque.

Determinism: the only randomness is victim selection, drawn from a
:class:`random.Random` seeded with the engine's ``seed`` (collectors
pass :data:`ENGINE_SEED`).  Two runs of the same workload produce
byte-identical schedules and traces.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from ...clock import Clock
from .tasks import GCTask

#: work-stealing RNG seed (victim selection) of a collector's engine;
#: never the global RNG
ENGINE_SEED = 0x7E2A6C


@dataclass
class WorkerStats:
    """One worker's accounting for a phase (or an aggregated cycle)."""

    index: int
    tasks: int = 0
    steals: int = 0
    busy_seconds: float = 0.0
    steal_seconds: float = 0.0
    overhead_seconds: float = 0.0
    idle_seconds: float = 0.0

    @property
    def active_seconds(self) -> float:
        return self.busy_seconds + self.steal_seconds + self.overhead_seconds


@dataclass
class PhaseExecution:
    """Result of running one task bag on the engine."""

    phase: str
    workers: int
    tasks: int
    #: sum of raw task costs — what a single worker would execute
    serial_seconds: float
    #: max lane time — what the mutator pause was actually charged
    critical_path: float
    steals: int
    idle_seconds: float
    imbalance: float
    #: critical-path seconds hidden behind mutator overlap (concurrent
    #: phases only; stop-the-world phases leave this at 0)
    hidden_seconds: float = 0.0
    per_worker: List[WorkerStats] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        if self.critical_path <= 0.0:
            return 1.0
        return self.serial_seconds / self.critical_path

    @property
    def charged_seconds(self) -> float:
        """What the pause actually paid: critical path minus overlap."""
        return self.critical_path - self.hidden_seconds

    def stat_record(self) -> Dict[str, Any]:
        """Compact per-phase stats for trace exporters and CSVs."""
        return {
            "phase": self.phase,
            "workers": self.workers,
            "tasks": self.tasks,
            "steals": self.steals,
            "serial_s": round(self.serial_seconds, 9),
            "critical_s": round(self.critical_path, 9),
            "hidden_s": round(self.hidden_seconds, 9),
            "idle_s": round(self.idle_seconds, 9),
            "imbalance": round(self.imbalance, 6),
        }


@dataclass
class ParallelCycleSummary:
    """Per-GC-cycle aggregate over all of the cycle's engine phases."""

    tasks: int = 0
    steals: int = 0
    serial_seconds: float = 0.0
    parallel_seconds: float = 0.0
    #: summed concurrent overlap — critical-path time never charged
    hidden_seconds: float = 0.0
    idle_seconds: float = 0.0
    imbalance: float = 1.0
    worker_busy: List[float] = field(default_factory=list)
    worker_idle: List[float] = field(default_factory=list)
    worker_steals: List[int] = field(default_factory=list)


def summarize_executions(
    execs: Iterable[PhaseExecution], workers: int
) -> ParallelCycleSummary:
    """Fold a cycle's phase executions into one summary record."""
    execs = list(execs)
    summary = ParallelCycleSummary()
    lanes = max([workers] + [e.workers for e in execs])
    busy = [0.0] * lanes
    idle = [0.0] * lanes
    steals = [0] * lanes
    # Cycle-wide mean active lane time is per-phase-weighted: each phase
    # contributes its active time divided by *its own* worker count, so a
    # cycle mixing 1-worker majors with 4-worker minors does not divide
    # single-lane phases by the widest pool (which understated the mean
    # and overstated imbalance).
    mean_active = 0.0
    for ex in execs:
        summary.tasks += ex.tasks
        summary.steals += ex.steals
        summary.serial_seconds += ex.serial_seconds
        summary.parallel_seconds += ex.critical_path
        summary.hidden_seconds += ex.hidden_seconds
        summary.idle_seconds += ex.idle_seconds
        phase_active = 0.0
        for ws in ex.per_worker:
            busy[ws.index] += ws.busy_seconds
            idle[ws.index] += ws.idle_seconds
            steals[ws.index] += ws.steals
            phase_active += ws.active_seconds
        mean_active += phase_active / max(1, ex.workers)
    summary.worker_busy = busy
    summary.worker_idle = idle
    summary.worker_steals = steals
    if mean_active > 0.0 and summary.parallel_seconds > 0.0:
        # Summed critical paths over summed per-phase mean lane times.
        summary.imbalance = summary.parallel_seconds / mean_active
    return summary


class GCTaskEngine:
    """Simulated pool of GC worker threads over per-thread deques."""

    def __init__(
        self,
        clock: Clock,
        cost: Any,
        workers: int,
        seed: int,
        trace: bool = False,
        name: str = "gc",
    ):
        if workers < 1:
            raise ValueError(f"engine needs >=1 worker, got {workers}")
        self.clock = clock
        self.cost = cost
        self.workers = workers
        self.rng = random.Random(seed)
        self.trace = trace
        self.name = name
        #: Chrome-trace (chrome://tracing) events, populated when tracing
        self.trace_events: List[Dict[str, Any]] = []
        #: per-phase stat records, in execution order (chrome-trace
        #: ``otherData`` and pause-phase attribution)
        self.phase_log: List[Dict[str, Any]] = []
        # Lifetime counters (across all phases run on this engine).
        self.total_tasks = 0
        self.total_steals = 0
        self.total_phases = 0
        self.total_hidden_seconds = 0.0

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Iterable[GCTask],
        phase: str,
        workers: Optional[int] = None,
        concurrent_budget: Optional[float] = None,
    ) -> PhaseExecution:
        """Execute ``tasks`` on ``workers`` lanes; charge the critical path.

        The caller's current bucket/sub-bucket context receives the
        charge, exactly like a scalar ``clock.charge`` would.  An
        explicit ``workers=`` request is clamped to the engine's pool
        size: a phase can narrow its parallelism (stripe ownership,
        single-threaded old gen) but never run on more lanes than the
        engine has threads.

        With ``concurrent_budget`` set, the phase runs on a *concurrent*
        lane set (:meth:`Clock.concurrent`): its critical path races the
        given seconds of already-elapsed mutator time, only the overrun
        is charged to the pause, and the hidden part is reported as
        ``PhaseExecution.hidden_seconds``.
        """
        task_list = list(tasks)
        requested = (
            self.workers if workers is None else min(workers, self.workers)
        )
        n = max(1, min(requested, max(1, len(task_list))))
        if not task_list:
            return PhaseExecution(
                phase=phase,
                workers=n,
                tasks=0,
                serial_seconds=0.0,
                critical_path=0.0,
                steals=0,
                idle_seconds=0.0,
                imbalance=1.0,
            )

        # Distribute: affinity-carrying tasks go to their owner's deque
        # (stripe ownership); the rest round-robin.  A single lane runs
        # the bag in order and never reads the deques.
        deques: List[deque] = [deque() for _ in range(n)]
        if n > 1:
            rr = 0
            for task in task_list:
                if task.affinity is not None:
                    deques[task.affinity % n].append(task)
                else:
                    deques[rr % n].append(task)
                    rr += 1

        stats = [WorkerStats(i) for i in range(n)]
        dispatch = self.cost.gc_task_dispatch_cost
        steal_cost = self.cost.gc_steal_cost
        t0 = self.clock.now
        if concurrent_budget is None:
            region = self.clock.parallel(n)
        else:
            region = self.clock.concurrent(n, budget=concurrent_budget)
        with region as lanes:
            remaining = len(task_list)
            if n == 1:
                # No choice of lane and no victim to steal from: lane 0
                # takes the same sequential adds ``advance`` would make,
                # without the per-task lane selection.
                if dispatch < 0:
                    raise ValueError(f"cannot advance a lane by {dispatch}")
                trace = self.trace
                busy = lanes.busy[0]
                overhead = lanes.overhead[0]
                for task in task_list:
                    cost = task.cost
                    if cost < 0:
                        raise ValueError(f"cannot advance a lane by {cost}")
                    start = busy + overhead
                    overhead += dispatch
                    busy += cost
                    if trace:
                        self._trace(
                            task, phase, t0, start, busy + overhead, 0
                        )
                lanes.busy[0] = busy
                lanes.overhead[0] = overhead
                stats[0].tasks = remaining
                remaining = 0
            # Each lane's time, refreshed whenever that lane advances: the
            # next task goes to the least-loaded lane, lowest index first.
            times = [lanes.lane_time(i) for i in range(n)]
            while remaining:
                w = min(range(n), key=times.__getitem__)
                if not deques[w]:
                    victims = [i for i in range(n) if deques[i]]
                    victim = victims[self.rng.randrange(len(victims))]
                    deques[w].append(deques[victim].pop())
                    lanes.advance(w, steal_cost, kind="steal")
                    stats[w].steals += 1
                task = deques[w].popleft()
                start = lanes.lane_time(w)
                lanes.advance(w, dispatch, kind="overhead")
                lanes.advance(w, task.cost, kind="busy")
                stats[w].tasks += 1
                remaining -= 1
                times[w] = lanes.lane_time(w)
                if self.trace:
                    self._trace(task, phase, t0, start, times[w], w)
            if n > 1:
                # Termination protocol: every worker spins/offers before
                # the pause can end (single-threaded GCs skip it).
                for i in range(n):
                    lanes.advance(
                        i, self.cost.gc_termination_cost, kind="overhead"
                    )
            critical = lanes.critical_path
            for i in range(n):
                stats[i].busy_seconds = lanes.busy[i]
                stats[i].steal_seconds = lanes.steal[i]
                stats[i].overhead_seconds = lanes.overhead[i]
                stats[i].idle_seconds = lanes.idle(i)
            imbalance = lanes.imbalance
            total_idle = lanes.total_idle

        execution = PhaseExecution(
            phase=phase,
            workers=n,
            tasks=len(task_list),
            serial_seconds=sum(t.cost for t in task_list),
            critical_path=critical,
            steals=sum(s.steals for s in stats),
            idle_seconds=total_idle,
            imbalance=imbalance,
            hidden_seconds=lanes.hidden,
            per_worker=stats,
        )
        self.total_tasks += execution.tasks
        self.total_steals += execution.steals
        self.total_phases += 1
        self.total_hidden_seconds += execution.hidden_seconds
        self.phase_log.append(execution.stat_record())
        return execution

    def _trace(
        self,
        task: GCTask,
        phase: str,
        t0: float,
        start: float,
        end: float,
        lane: int,
    ) -> None:
        """Record one executed task as a chrome-trace complete event."""
        self.trace_events.append(
            {
                "name": task.name,
                "cat": phase,
                "ph": "X",
                "ts": round((t0 + start) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": lane,
                "args": {"kind": task.kind},
            }
        )
