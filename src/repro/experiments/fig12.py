"""Figure 12: TeraHeap on the NVM server (Optane-backed H2).

(a) Spark-SD (off-heap on NVM App Direct) vs TeraHeap: TH wins up to 79%
    (avg 56%) by eliminating caching S/D and most GC.
(b) Spark-MO (heap on NVM Memory mode) vs TeraHeap: TH wins up to 86%
    (avg 48%) — the hardware cache is placement-agnostic, so GC over the
    NVM-resident heap is slow (minor GC +36% vs Spark-SD, 5.3x/11.8x more
    NVM reads/writes than TH).
(c) Panthera vs TeraHeap at equal DRAM and NVM budgets: TH wins 7-69% —
    Panthera still scans/compacts its whole NVM old generation each major
    GC.

The full matrix runs every panel's workloads at iteration scale 0.4; the
smoke matrix is panel (a)'s SVD pair at 0.3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult
from .configs import (
    PANTHERA_DRAM_GB,
    PANTHERA_WORKLOADS,
    SPARK_WORKLOADS_TABLE3,
    TERAHEAP_H1_VS_PANTHERA_GB,
    SparkWorkloadConfig,
)
from .harness import Cell, Params, Spec, nest
from .runner import run_spark_workload

#: the panels' baselines, in figure order
PANELS = ("spark-sd", "spark-mo", "panthera")

#: KMeans runs only in panel (c); give it an LR-like configuration
_KM_CFG = SparkWorkloadConfig("KM", 70, [43, 70], [43, 70], huge_pages=True)


def _cfg(name: str) -> SparkWorkloadConfig:
    if name == "KM":
        return _KM_CFG
    return SPARK_WORKLOADS_TABLE3[name]


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    panels = {p: list(SPARK_WORKLOADS_TABLE3) for p in PANELS}
    panels["panthera"] = PANTHERA_WORKLOADS
    if smoke:
        panels = {"spark-sd": ["SVD"]}
    scale = 0.3 if smoke else 0.4
    return [
        (
            f"{panel}/{name}/{system}",
            dict(panel=panel, workload=name, system=system, scale=scale),
        )
        for panel, workloads in panels.items()
        for name in workloads
        for system in (panel, "teraheap")
    ]


def run_cell(
    panel: str,
    workload: str,
    system: str,
    scale: float,
    session: Optional[RunSession] = None,
) -> ExperimentResult:
    """One system of ``panel``'s pair on the NVM device."""
    cfg = _cfg(workload)
    if panel == "panthera":
        # Panthera's heap is fixed at 64 GB (Section 7.5) regardless of
        # the dataset: cached data that does not fit is dropped and
        # recomputed (MEMORY_ONLY semantics), which is the churn that
        # makes Panthera's NVM old-gen scans so costly.
        dram = (
            PANTHERA_DRAM_GB
            if system == "panthera"
            else TERAHEAP_H1_VS_PANTHERA_GB + 16
        )
        dataset = min(cfg.dataset_gb, 55)
    else:
        dram = cfg.sd_drams[-2] if len(cfg.sd_drams) > 1 else cfg.sd_drams[-1]
        dataset = None
    return run_spark_workload(
        workload,
        system,
        dram,
        cfg,
        device_kind="nvm",
        scale=scale,
        dataset_gb=dataset,
        session=session,
    )


def _pairs(
    cells: List[Cell], panel: str
) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
    """``panel``'s (baseline, teraheap) pairs by workload."""
    return {
        name: (by[panel], by["teraheap"])
        for name, by in nest(cells, "workload", "system", panel=panel).items()
    }


def check(cells: List[Cell]) -> List[str]:
    """TeraHeap beats Spark-SD and Panthera on every workload both run,
    and Spark-MO on average; every panel run has a pair both complete."""
    failures = []
    for panel in PANELS:
        pairs = _pairs(cells, panel)
        if not pairs:
            continue
        gains = {
            name: round(1 - th.total / base.total, 3)
            for name, (base, th) in pairs.items()
            if not base.oom and not th.oom and base.total
        }
        if not gains:
            failures.append(f"{panel}: no pair where both systems complete")
        elif panel == "spark-mo":
            mean = sum(gains.values()) / len(gains)
            if mean <= 0:
                failures.append(f"spark-mo: mean TeraHeap gain {mean:.1%}")
        else:
            failures += [
                f"{panel}/{name}: TeraHeap gain {g:.1%}"
                for name, g in gains.items()
                if g <= 0
            ]
    return failures


def format_pairs(pairs) -> str:
    lines = []
    for name, (base, th) in pairs.items():
        if base.oom or th.oom:
            lines.append(f"{name}: OOM ({base.system if base.oom else th.system})")
            continue
        gain = 1 - th.total / base.total if base.total else 0.0
        lines.append(
            f"{name}: {base.system}={base.total:9.1f}s  th={th.total:9.1f}s"
            f"  improvement={gain:6.1%}"
        )
    return "\n".join(lines)


def report(cells: List[Cell]) -> str:
    """One block of pairs per panel run, in figure order."""
    return "\n".join(
        format_pairs(pairs)
        for pairs in (_pairs(cells, panel) for panel in PANELS)
        if pairs
    )


SPEC = Spec(
    name="fig12",
    description="Figure 12: Spark-SD, Spark-MO and Panthera vs TeraHeap on NVM",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
