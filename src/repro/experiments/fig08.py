"""Figure 8: TeraHeap vs Parallel Scavenge (jdk11) vs G1 (jdk17).

The paper's findings to reproduce: G1 beats PS (7-72%) by cutting GC time
but cannot remove caching S/D; TeraHeap then beats G1 (21-48%); and G1
OOMs on SVM, BC and RL because long-lived humongous objects fragment its
region space.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult, normalize
from .configs import SPARK_WORKLOADS_TABLE3
from .runner import run_spark_workload

SYSTEMS = ("spark-sd11", "spark-g1", "teraheap")

#: workloads whose large row batches fragment G1's humongous regions
G1_OOM_EXPECTED = {"SVM", "BC", "RL"}


def run(
    workloads: Optional[List[str]] = None,
    scale: float = 1.0,
    session: Optional[RunSession] = None,
) -> Dict[str, List[ExperimentResult]]:
    results: Dict[str, List[ExperimentResult]] = {}
    for name in workloads or list(SPARK_WORKLOADS_TABLE3):
        cfg = SPARK_WORKLOADS_TABLE3[name]
        # The same DRAM for all three systems: the largest TeraHeap point,
        # which every collector except G1's fragmentation victims can run.
        dram = cfg.th_drams[-1]
        rows = [
            run_spark_workload(
                name, system, dram, cfg, scale=scale, session=session
            )
            for system in SYSTEMS
        ]
        results[name] = normalize(rows)
    return results


def format_results(results: Dict[str, List[ExperimentResult]]) -> str:
    lines = []
    for name, rows in results.items():
        baseline = next((r.total for r in rows if not r.oom), None)
        lines.append(f"== {name} ==")
        for r in rows:
            lines.append("  " + r.row(baseline))
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_results(run(scale=0.5)))
