"""Figure 13: performance scaling with mutator threads and dataset size.

(a) CC/LR (Spark) and CDLP (Giraph) at 4/8/16 executor threads,
    normalised to 8 threads per system.  TeraHeap keeps scaling to 16
    threads (up to 23%) because H1 stays unpressured; the baselines stall
    (Spark-SD LR's GC grows ~44% at 16 threads) and Giraph-OOC OOMs at 4
    threads in the paper.
(b) Small vs large datasets: TeraHeap's advantage holds or grows (up to
    70%) as the dataset grows.

The full matrix runs both panels at iteration scale 0.3.  The smoke
matrix is panel (a) at 8 and 16 threads: Spark at scale 0.25, CDLP on
the small smoke dataset.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult
from .configs import (
    DATASET_SCALING,
    GIRAPH_WORKLOADS_TABLE4,
    SCALING_THREADS,
    SPARK_WORKLOADS_TABLE3,
    SMOKE_GIRAPH_DATASET_GB,
)
from .harness import Cell, Params, Spec, nest
from .runner import run_cell as run_workload

#: panel (a)'s (framework, workload, baseline, TeraHeap) series
THREAD_SERIES = (
    ("spark", "CC", "spark-sd", "teraheap"),
    ("spark", "LR", "spark-sd", "teraheap"),
    ("giraph", "CDLP", "giraph-ooc", "giraph-th"),
)


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    out = []
    for framework, workload, *systems in THREAD_SERIES:
        small = SMOKE_GIRAPH_DATASET_GB if smoke and framework == "giraph" else None
        points = [
            ("threads", t, small) for t in ([8, 16] if smoke else SCALING_THREADS)
        ]
        if not smoke:
            points += [("dataset", 8, ds) for ds in DATASET_SCALING[workload]]
        for system in systems:
            for panel, threads, dataset in points:
                key = f"{panel}/{workload}/{system}/{threads}t"
                out.append((
                    key + (f"/{dataset}GB" if dataset else ""),
                    dict(
                        panel=panel,
                        framework=framework,
                        workload=workload,
                        system=system,
                        threads=threads,
                        dataset_gb=dataset,
                        scale=0.25 if smoke else 0.3,
                    ),
                ))
    return out


def run_cell(
    panel: str,
    framework: str,
    workload: str,
    system: str,
    threads: int,
    dataset_gb: Optional[int] = None,
    scale: float = 1.0,
    session: Optional[RunSession] = None,
) -> ExperimentResult:
    """One cell of ``panel`` ("threads" or "dataset")."""
    if framework == "giraph":
        cfg = GIRAPH_WORKLOADS_TABLE4[workload]
        dram = cfg.drams[-1]
        if dataset_gb is not None:
            dram = int(dataset_gb * dram / cfg.dataset_gb)
    elif panel == "threads":
        dram = SPARK_WORKLOADS_TABLE3[workload].sd_drams[-2]
    else:
        # Dataset scaling keeps the paper's DRAM : dataset pressure
        # ratio — DRAM grows with the data.
        dram = int(dataset_gb * 0.85) + 16
    return run_workload(
        framework,
        workload,
        system,
        dram,
        scale=scale,
        threads=threads,
        dataset_gb=dataset_gb,
        session=session,
    )


def check(cells: List[Cell]) -> List[str]:
    """(a) TeraHeap gains more from 16 threads than its baseline on CC, LR
    and CDLP (neither OOMs at 8 or 16 threads), and TeraHeap LR is faster
    at 16 threads than at 8; (b) TeraHeap is at most 10% slower than its
    baseline at every dataset size."""
    failures = []
    scaling = nest(cells, "workload", "system", "threads", panel="threads")
    for _, workload, base, th in THREAD_SERIES:
        if workload not in scaling:
            continue
        ratio = {}
        for system in (base, th):
            runs = scaling[workload][system]
            r8, r16 = runs[8], runs[16]
            if r8.oom or r16.oom:
                failures.append(f"{workload}/{system}: OOM at 8 or 16 threads")
            else:
                ratio[system] = round(r16.total / r8.total, 3)
        if len(ratio) == 2 and ratio[th] >= ratio[base]:
            failures.append(f"{workload}: 16/8-thread time ratio {ratio}")
    lr = scaling.get("LR", {}).get("teraheap")
    if lr and lr[16].total >= lr[8].total:
        failures.append(
            f"LR/teraheap: 16 threads {lr[16].total:.1f} s, "
            f"8 threads {lr[8].total:.1f} s"
        )
    datasets = nest(cells, "workload", "system", "dataset_gb", panel="dataset")
    gains = {}
    for _, workload, base, th in THREAD_SERIES:
        for ds, b in datasets.get(workload, {}).get(base, {}).items():
            t = datasets[workload][th][ds]
            if not (b.oom or t.oom):
                gains[f"{workload}@{ds}GB"] = round(1 - t.total / b.total, 3)
    if datasets and not gains:
        failures.append("dataset panel: no pair where both systems complete")
    failures += [
        f"{name}: TeraHeap gain {g:.1%} (needs > -10%)"
        for name, g in gains.items()
        if g <= -0.1
    ]
    return failures


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


def report(cells: List[Cell]) -> str:
    """Panel (a), then panel (b) when run."""
    text = format_thread_scaling(nest(cells, "workload", "system", "threads", panel="threads"))
    datasets = nest(cells, "workload", "system", "dataset_gb", panel="dataset")
    if datasets:
        text += "\n" + format_dataset_scaling(datasets)
    return text


SPEC = Spec(
    name="fig13",
    description="Figure 13: scaling with mutator threads and dataset size",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
