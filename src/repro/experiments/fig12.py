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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult
from .configs import PANTHERA_WORKLOADS, SPARK_WORKLOADS_TABLE3, SparkWorkloadConfig
from .runner import run_spark_workload

#: KMeans runs only in panel (c); give it an LR-like configuration
_KM_CFG = SparkWorkloadConfig(
    "KM", 70, [43, 70], [43, 70], 1084, huge_pages=True
)


def _cfg(name: str) -> SparkWorkloadConfig:
    if name == "KM":
        return _KM_CFG
    return SPARK_WORKLOADS_TABLE3[name]


def run_panel(
    baseline: str,
    workloads: Optional[List[str]] = None,
    scale: float = 1.0,
    session: Optional[RunSession] = None,
) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
    """Run (baseline, teraheap) pairs on the NVM device."""
    if workloads is None:
        workloads = (
            PANTHERA_WORKLOADS
            if baseline == "panthera"
            else list(SPARK_WORKLOADS_TABLE3)
        )
    out = {}
    for name in workloads:
        cfg = _cfg(name)
        if baseline == "panthera":
            from .configs import PANTHERA_DRAM_GB, TERAHEAP_H1_VS_PANTHERA_GB

            # Panthera's heap is fixed at 64 GB (Section 7.5) regardless
            # of the dataset: cached data that does not fit is dropped and
            # recomputed (MEMORY_ONLY semantics), which is the churn that
            # makes Panthera's NVM old-gen scans so costly.
            dataset = min(cfg.dataset_gb, 55)
            base = run_spark_workload(
                name, "panthera", PANTHERA_DRAM_GB, cfg,
                device_kind="nvm", scale=scale, dataset_gb=dataset,
                session=session,
            )
            th = run_spark_workload(
                name,
                "teraheap",
                TERAHEAP_H1_VS_PANTHERA_GB + 16,
                cfg,
                device_kind="nvm",
                scale=scale,
                dataset_gb=dataset,
                session=session,
            )
        else:
            dram = cfg.sd_drams[-2] if len(cfg.sd_drams) > 1 else cfg.sd_drams[-1]
            base = run_spark_workload(
                name, baseline, dram, cfg, device_kind="nvm", scale=scale,
                session=session,
            )
            th = run_spark_workload(
                name, "teraheap", dram, cfg, device_kind="nvm", scale=scale,
                session=session,
            )
        out[name] = (base, th)
    return out


def run(
    scale: float = 1.0,
    workloads: Optional[List[str]] = None,
    session: Optional[RunSession] = None,
):
    return {
        "sd_vs_th": run_panel("spark-sd", workloads, scale, session),
        "mo_vs_th": run_panel("spark-mo", workloads, scale, session),
        "panthera_vs_th": run_panel("panthera", workloads, scale, session),
    }


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


if __name__ == "__main__":  # pragma: no cover
    for panel, pairs in run(scale=0.5, workloads=["PR", "LR"]).items():
        print(f"-- {panel} --")
        print(format_pairs(pairs))
