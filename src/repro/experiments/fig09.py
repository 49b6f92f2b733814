"""Figure 9: the transfer hint and the low-threshold mechanism (Giraph).

(a) TeraHeap with (H) vs without (NH) ``h2_move`` hints.  Without hints,
objects move to H2 only when the high threshold fires — often while still
mutable — so subsequent updates become device read-modify-writes and
"other" time inflates (paper: the hint wins by 29-55%).

(b) TeraHeap with (L) vs without (NL) the low threshold, on PR and SSSP
with the large 91 GB dataset.  Without the low threshold, a pressure-
triggered transfer moves *all* marked objects, including heavily-updated
ones; with it, only enough to reach 50% occupancy (paper: up to 44%).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult
from .configs import GIRAPH_WORKLOADS_TABLE4
from .runner import run_giraph_workload


def run_hint_ablation(
    workloads: List[str] = None,
    session: Optional[RunSession] = None,
) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
    """Panel (a): (no-hint, hint) pairs per workload."""
    out = {}
    for name in workloads or list(GIRAPH_WORKLOADS_TABLE4):
        cfg = GIRAPH_WORKLOADS_TABLE4[name]
        dram = cfg.drams[-1]
        no_hint, _, _ = run_giraph_workload(
            name,
            "giraph-th",
            dram,
            cfg,
            teraheap_overrides={"use_move_hint": False},
            session=session,
        )
        no_hint.system = "th-nohint"
        with_hint, _, _ = run_giraph_workload(
            name, "giraph-th", dram, cfg, session=session
        )
        with_hint.system = "th-hint"
        out[name] = (no_hint, with_hint)
    return out


def run_low_threshold_ablation(
    workloads: List[str] = ("PR", "SSSP"),
    dataset_gb: int = 91,
    session: Optional[RunSession] = None,
) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
    """Panel (b): (no-low, low) pairs on the large dataset."""
    out = {}
    drams = {"PR": 170, "SSSP": 200}
    for name in workloads:
        cfg = GIRAPH_WORKLOADS_TABLE4[name]
        dram = drams.get(name, cfg.drams[-1] * 2)
        no_low, _, _ = run_giraph_workload(
            name,
            "giraph-th",
            dram,
            cfg,
            dataset_gb=dataset_gb,
            teraheap_overrides={"low_threshold": None},
            session=session,
        )
        no_low.system = "th-nolow"
        with_low, _, _ = run_giraph_workload(
            name,
            "giraph-th",
            dram,
            cfg,
            dataset_gb=dataset_gb,
            teraheap_overrides={"low_threshold": 0.50},
            session=session,
        )
        with_low.system = "th-low"
        out[name] = (no_low, with_low)
    return out


def format_pairs(pairs) -> str:
    lines = []
    for name, (a, b) in pairs.items():
        gain = 1 - b.total / a.total if a.total else 0.0
        lines.append(
            f"{name}: {a.system}={a.total:9.1f}s  {b.system}={b.total:9.1f}s"
            f"  improvement={gain:6.1%}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_pairs(run_hint_ablation()))
    print(format_pairs(run_low_threshold_ablation()))
