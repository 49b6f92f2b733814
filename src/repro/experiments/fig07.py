"""Figure 7: GC timeline and old-generation occupancy for Spark PageRank.

The paper contrasts Spark-SD (many cheap major GCs, each reclaiming ~10%
of a perpetually-full old generation) with TeraHeap (an order of magnitude
fewer majors, each dominated by H2 compaction I/O, and minor-GC time
reduced because fewer old-to-young cards need scanning).  Both matrices
run the two systems at iteration scale 0.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..faults.session import RunSession
from ..frameworks.spark.workloads import SPARK_WORKLOADS
from ..gc.base import GCCycle
from ..units import gb
from .configs import SPARK_WORKLOADS_TABLE3
from .harness import Cell, Params, Spec
from .runner import build_spark_vm


@dataclass
class GCTimeline:
    """One system's Figure 7 panel."""

    system: str
    cycles: List[GCCycle] = field(default_factory=list)
    total: float = 0.0

    @property
    def major_cycles(self) -> List[GCCycle]:
        return [c for c in self.cycles if c.kind == "major"]

    @property
    def minor_cycles(self) -> List[GCCycle]:
        return [c for c in self.cycles if c.kind == "minor"]

    @property
    def mean_major(self) -> float:
        majors = self.major_cycles
        return sum(c.duration for c in majors) / len(majors) if majors else 0.0

    @property
    def total_minor(self) -> float:
        return sum(c.duration for c in self.minor_cycles)

    def occupancy_series(self):
        """(time, old-gen occupancy) samples across the run."""
        return [
            (c.start_time + c.duration, c.old_occupancy_after)
            for c in self.cycles
        ]


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    return [
        (system, dict(system=system, scale=0.4))
        for system in ("spark-sd", "teraheap")
    ]


def run_cell(
    system: str, scale: float, session: Optional[RunSession] = None
) -> GCTimeline:
    """Run Spark PR at 80 GB DRAM under ``system``; capture its GC record."""
    cfg = SPARK_WORKLOADS_TABLE3["PR"]
    vm, ctx = build_spark_vm(system, 80, cfg, session=session)
    SPARK_WORKLOADS["PR"](ctx, gb(cfg.dataset_gb), scale=scale)
    return GCTimeline(
        system=system, cycles=list(vm.collector.stats.cycles), total=vm.elapsed()
    )


def check(cells: List[Cell]) -> List[str]:
    """Spark-SD's majors are many and cheap, TeraHeap's few and I/O-bound;
    TeraHeap's minor-GC total is lower (fewer cards to scan); both runs
    have an occupancy series to plot."""
    by = {c.result.system: c.result for c in cells}
    sd, th = by["spark-sd"], by["teraheap"]
    failures = []
    if len(th.major_cycles) >= len(sd.major_cycles):
        failures.append(f"teraheap runs {len(th.major_cycles)} majors, "
                        f"spark-sd only {len(sd.major_cycles)}")
    if th.mean_major <= sd.mean_major:
        failures.append(f"teraheap's mean major {th.mean_major:.2f} s not "
                        f"above spark-sd's {sd.mean_major:.2f} s")
    if th.total_minor >= sd.total_minor:
        failures.append(f"teraheap's minor-GC total {th.total_minor:.1f} s "
                        f"not below spark-sd's {sd.total_minor:.1f} s")
    for t in (sd, th):
        if not t.occupancy_series():
            failures.append(f"{t.system}: empty occupancy series")
    return failures


def format_results(timelines: List[GCTimeline]) -> str:
    lines = []
    for t in timelines:
        lines.append(
            f"{t.system}: majors={len(t.major_cycles)} "
            f"avg_major={t.mean_major:.2f}s "
            f"minors={len(t.minor_cycles)} total_minor={t.total_minor:.1f}s"
        )
    return "\n".join(lines)


SPEC = Spec(
    name="fig07",
    description="Figure 7: GC timeline of Spark PR, Spark-SD vs TeraHeap",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=lambda cells: format_results([c.result for c in cells]),
)
