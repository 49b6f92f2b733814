"""Figure 7: GC timeline and old-generation occupancy for Spark PageRank.

The paper contrasts Spark-SD (many cheap major GCs, each reclaiming ~10%
of a perpetually-full old generation) with TeraHeap (an order of magnitude
fewer majors, each dominated by H2 compaction I/O, and minor-GC time
reduced because fewer old-to-young cards need scanning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..faults.session import RunSession
from ..gc.base import GCCycle
from .configs import SPARK_WORKLOADS_TABLE3


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


def run(
    scale: float = 1.0,
    dram_gb: int = 80,
    session: Optional[RunSession] = None,
) -> List[GCTimeline]:
    """Run Spark PR under both systems and capture the GC record."""
    cfg = SPARK_WORKLOADS_TABLE3["PR"]
    timelines = []
    for system in ("spark-sd", "teraheap"):
        # Collect cycles via a fresh run; the runner returns only the
        # summary, so re-run with direct VM access.
        from .runner import build_spark_vm
        from ..frameworks.spark.workloads import SPARK_WORKLOADS
        from ..units import gb

        vm, ctx = build_spark_vm(system, dram_gb, cfg, session=session)
        SPARK_WORKLOADS["PR"](ctx, gb(cfg.dataset_gb), scale=scale)
        timelines.append(
            GCTimeline(
                system=system,
                cycles=list(vm.collector.stats.cycles),
                total=vm.elapsed(),
            )
        )
    return timelines


def format_results(timelines: List[GCTimeline]) -> str:
    lines = []
    for t in timelines:
        lines.append(
            f"{t.system}: majors={len(t.major_cycles)} "
            f"avg_major={t.mean_major:.2f}s "
            f"minors={len(t.minor_cycles)} total_minor={t.total_minor:.1f}s"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_results(run(scale=0.5)))
