"""Figure 6: performance under fixed DRAM size (NVMe server).

For every Spark workload, Spark-SD runs at each Figure 6 DRAM point and
TeraHeap at its two points; for every Giraph workload, Giraph-OOC and
TeraHeap run at the Table 4 DRAM points.  Results are normalised to the
first non-OOM bar, and OOM bars are reported as missing — reproducing
both the speedups (up to 73% / 28%) and the DRAM-reduction story (up to
4.6x / 1.2x less DRAM at equal-or-better performance).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult, normalize
from .configs import GIRAPH_WORKLOADS_TABLE4, SPARK_WORKLOADS_TABLE3
from .runner import run_giraph_workload, run_spark_workload


def run_spark(
    workloads: Optional[List[str]] = None,
    scale: float = 1.0,
    drams_per_workload: Optional[int] = None,
    session: Optional[RunSession] = None,
) -> Dict[str, List[ExperimentResult]]:
    """Spark half of Figure 6."""
    results: Dict[str, List[ExperimentResult]] = {}
    for name in workloads or list(SPARK_WORKLOADS_TABLE3):
        cfg = SPARK_WORKLOADS_TABLE3[name]
        rows: List[ExperimentResult] = []
        sd_points = cfg.sd_drams
        th_points = cfg.th_drams
        if drams_per_workload:
            sd_points = sd_points[-drams_per_workload:]
            th_points = th_points[-drams_per_workload:]
        for dram in sd_points:
            rows.append(
                run_spark_workload(
                    name, "spark-sd", dram, cfg, scale=scale, session=session
                )
            )
        for dram in th_points:
            rows.append(
                run_spark_workload(
                    name, "teraheap", dram, cfg, scale=scale, session=session
                )
            )
        results[name] = normalize(rows)
    return results


def run_giraph(
    workloads: Optional[List[str]] = None,
    scale: float = 1.0,
    session: Optional[RunSession] = None,
) -> Dict[str, List[ExperimentResult]]:
    """Giraph half of Figure 6."""
    results: Dict[str, List[ExperimentResult]] = {}
    for name in workloads or list(GIRAPH_WORKLOADS_TABLE4):
        cfg = GIRAPH_WORKLOADS_TABLE4[name]
        rows: List[ExperimentResult] = []
        for dram in cfg.drams:
            res, _, _ = run_giraph_workload(
                name, "giraph-ooc", dram, cfg, session=session
            )
            rows.append(res)
        for dram in cfg.drams:
            res, _, _ = run_giraph_workload(
                name, "giraph-th", dram, cfg, session=session
            )
            rows.append(res)
        results[name] = normalize(rows)
    return results


def format_results(results: Dict[str, List[ExperimentResult]]) -> str:
    lines = []
    for name, rows in results.items():
        lines.append(f"== {name} ==")
        baseline = next(
            (r.total for r in rows if not r.oom and r.total), None
        )
        for r in rows:
            lines.append("  " + r.row(baseline))
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - CLI entry
    spark = run_spark(scale=0.5)
    giraph = run_giraph()
    print(format_results(spark))
    print(format_results(giraph))


if __name__ == "__main__":  # pragma: no cover
    main()
