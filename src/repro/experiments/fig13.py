"""Figure 13: performance scaling with mutator threads and dataset size.

(a) CC/LR (Spark) and CDLP (Giraph) at 4/8/16 executor threads,
    normalised to 8 threads per system.  TeraHeap keeps scaling to 16
    threads (up to 23%) because H1 stays unpressured; the baselines stall
    (Spark-SD LR's GC grows ~44% at 16 threads) and Giraph-OOC OOMs at 4
    threads in the paper.
(b) Small vs large datasets: TeraHeap's advantage holds or grows (up to
    70%) as the dataset grows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult
from .configs import (
    DATASET_SCALING,
    GIRAPH_WORKLOADS_TABLE4,
    SCALING_THREADS,
    SPARK_WORKLOADS_TABLE3,
)
from .runner import run_giraph_workload, run_spark_workload


def _run_cell(
    framework: str, workload: str, system: str, threads: int,
    dataset_gb=None, scale: float = 1.0,
    session: Optional[RunSession] = None,
) -> ExperimentResult:
    if framework == "spark":
        cfg = SPARK_WORKLOADS_TABLE3[workload]
        if dataset_gb is None:
            dram = cfg.sd_drams[-2]
        else:
            # Dataset scaling keeps the paper's DRAM : dataset pressure
            # ratio — DRAM grows with the data.
            dram = int(dataset_gb * 0.85) + 16
        return run_spark_workload(
            workload, system, dram, cfg,
            threads=threads, dataset_gb=dataset_gb, scale=scale,
            session=session,
        )
    cfg = GIRAPH_WORKLOADS_TABLE4[workload]
    if dataset_gb is None:
        dram = cfg.drams[-1]
    else:
        dram = int(dataset_gb * cfg.drams[-1] / cfg.dataset_gb)
    res, _, _ = run_giraph_workload(
        workload, system, dram, cfg,
        threads=threads, dataset_gb=dataset_gb, session=session,
    )
    return res


def run_thread_scaling(
    scale: float = 1.0,
    threads: List[int] = None,
    session: Optional[RunSession] = None,
) -> Dict[str, Dict[str, Dict[int, ExperimentResult]]]:
    """Panel (a): results[workload][system][threads]."""
    cells = [
        ("spark", "CC", "spark-sd"),
        ("spark", "CC", "teraheap"),
        ("spark", "LR", "spark-sd"),
        ("spark", "LR", "teraheap"),
        ("giraph", "CDLP", "giraph-ooc"),
        ("giraph", "CDLP", "giraph-th"),
    ]
    out: Dict[str, Dict[str, Dict[int, ExperimentResult]]] = {}
    for framework, workload, system in cells:
        per_threads = {}
        for t in threads or SCALING_THREADS:
            per_threads[t] = _run_cell(
                framework, workload, system, t, scale=scale, session=session
            )
        out.setdefault(workload, {})[system] = per_threads
    return out


def run_dataset_scaling(
    scale: float = 1.0,
    session: Optional[RunSession] = None,
) -> Dict[str, Dict[str, Dict[int, ExperimentResult]]]:
    """Panel (b): results[workload][system][dataset_gb]."""
    cells = [
        ("spark", "CC", ("spark-sd", "teraheap")),
        ("spark", "LR", ("spark-sd", "teraheap")),
        ("giraph", "CDLP", ("giraph-ooc", "giraph-th")),
    ]
    out: Dict[str, Dict[str, Dict[int, ExperimentResult]]] = {}
    for framework, workload, systems in cells:
        small, large = DATASET_SCALING[workload]
        for system in systems:
            per_ds = {}
            for ds in (small, large):
                per_ds[ds] = _run_cell(
                    framework, workload, system, 8, dataset_gb=ds,
                    scale=scale, session=session,
                )
            out.setdefault(workload, {})[system] = per_ds
    return out


def format_thread_scaling(results) -> str:
    lines = []
    for workload, per_system in results.items():
        for system, per_threads in per_system.items():
            base = per_threads.get(8)
            base_total = base.total if base and not base.oom else None
            cells = []
            for t, r in sorted(per_threads.items()):
                if r.oom:
                    cells.append(f"{t}t=OOM")
                elif base_total:
                    cells.append(f"{t}t={r.total / base_total:5.2f}")
            lines.append(f"{workload} {system}: " + "  ".join(cells))
    return "\n".join(lines)


def format_dataset_scaling(results) -> str:
    lines = []
    for workload, per_system in results.items():
        for system, per_ds in per_system.items():
            row = "  ".join(
                f"{ds}GB={'OOM' if r.oom else f'{r.total:.0f}s'}"
                for ds, r in sorted(per_ds.items())
            )
            lines.append(f"{workload} {system}: {row}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_thread_scaling(run_thread_scaling(scale=0.5)))
