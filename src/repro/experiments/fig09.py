"""Figure 9: the transfer hint and the low-threshold mechanism (Giraph).

(a) TeraHeap with (H) vs without (NH) ``h2_move`` hints.  Without hints,
objects move to H2 only when the high threshold fires — often while still
mutable — so subsequent updates become device read-modify-writes and
"other" time inflates (paper: the hint wins by 29-55%).

(b) TeraHeap with (L) vs without (NL) the low threshold, on PR and SSSP
with the large 91 GB dataset.  Without the low threshold, a pressure-
triggered transfer moves *all* marked objects, including heavily-updated
ones; with it, only enough to reach 50% occupancy (paper: up to 44%).

The full matrix adds the §7.2 adaptive-threshold ablation on PR, within
10% of the static thresholds (panel (a)'s PR hint cell).  The smoke
matrix is panel (a)'s WCC pair on the small smoke dataset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..faults.session import RunSession
from ..metrics.report import ExperimentResult
from .configs import GIRAPH_WORKLOADS_TABLE4, giraph_size
from .harness import Cell, Params, Spec, nest
from .runner import run_cell as run_workload

#: variant (the result's system label) -> TeraHeap overrides
VARIANTS: Dict[str, Optional[dict]] = {
    "th-nohint": {"use_move_hint": False},
    "th-hint": None,
    "th-nolow": {"low_threshold": None},
    "th-low": {"low_threshold": 0.50},
    "th-adaptive": {"adaptive_thresholds": True},
}

#: panel -> its (baseline, improved) variant pair; the ablation's
#: baseline is the static-threshold default, panel (a)'s hint cell
PAIRS = {
    "a": ("th-nohint", "th-hint"),
    "b": ("th-nolow", "th-low"),
    "adaptive": ("th-hint", "th-adaptive"),
}

#: panel (b): the large dataset and its DRAM per workload
LOW_THRESHOLD_DATASET_GB = 91
LOW_THRESHOLD_DRAMS = {"PR": 170, "SSSP": 200}


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    names = ["WCC"] if smoke else list(GIRAPH_WORKLOADS_TABLE4)
    matrix = [
        (name, v, giraph_size(name, smoke)) for name in names for v in PAIRS["a"]
    ]
    if not smoke:
        large = LOW_THRESHOLD_DATASET_GB
        matrix += [
            (name, v, dict(dram_gb=dram, dataset_gb=large))
            for name, dram in LOW_THRESHOLD_DRAMS.items()
            for v in PAIRS["b"]
        ]
        matrix.append(("PR", "th-adaptive", giraph_size("PR", smoke)))
    return [
        (f"{name}/{variant}", dict(workload=name, variant=variant, **params))
        for name, variant, params in matrix
    ]


def run_cell(
    workload: str,
    variant: str,
    dram_gb: int,
    dataset_gb: Optional[int] = None,
    session: Optional[RunSession] = None,
) -> ExperimentResult:
    result = run_workload(
        "giraph",
        workload,
        "giraph-th",
        dram_gb,
        dataset_gb=dataset_gb,
        teraheap_overrides=VARIANTS[variant],
        session=session,
    )
    result.system = variant
    return result


def _pairs(
    cells: List[Cell], panel: str
) -> Dict[str, Tuple[ExperimentResult, ExperimentResult]]:
    """``panel``'s (baseline, improved) pairs by workload."""
    base, improved = PAIRS[panel]
    return {
        name: (by[base], by[improved])
        for name, by in nest(cells, "workload", "variant").items()
        if improved in by
    }


def _gains(pairs) -> Dict[str, float]:
    return {
        name: round(1 - b.total / a.total, 3)
        for name, (a, b) in pairs.items()
        if a.total
    }


def check(cells: List[Cell]) -> List[str]:
    """(a) The hint costs at most 10% anywhere, wins by more than 5%
    somewhere, and wins on WCC; (b) the low threshold costs at most 5%;
    adaptive thresholds stay within 10% of the static ones."""
    failures = []
    hint = _pairs(cells, "a")
    gains = _gains(hint)
    failures += [
        f"{name}: hint gain {g:.1%} below -10%"
        for name, g in gains.items()
        if g < -0.10
    ]
    if gains and max(gains.values()) <= 0.05:
        failures.append(f"no hint gain above 5%: {gains}")
    if "WCC" in hint and hint["WCC"][1].total >= hint["WCC"][0].total:
        failures.append("WCC: the hint does not win")
    failures += [
        f"{name}: low-threshold gain {g:.1%} below -5%"
        for name, g in _gains(_pairs(cells, "b")).items()
        if g < -0.05
    ]
    for static, adaptive in _pairs(cells, "adaptive").values():
        if adaptive.total > static.total * 1.10:
            failures.append(
                f"PR: adaptive {adaptive.total:.1f} s vs static "
                f"{static.total:.1f} s (> +10%)"
            )
    return failures


def format_pairs(pairs) -> str:
    lines = []
    for name, (a, b) in pairs.items():
        gain = 1 - b.total / a.total if a.total else 0.0
        lines.append(
            f"{name}: {a.system}={a.total:9.1f}s  {b.system}={b.total:9.1f}s"
            f"  improvement={gain:6.1%}"
        )
    return "\n".join(lines)


def report(cells: List[Cell]) -> str:
    """Panel (a), panel (b), then the adaptive-threshold ablation."""
    return "\n".join(
        format_pairs(pairs)
        for pairs in (_pairs(cells, panel) for panel in PAIRS)
        if pairs
    )


SPEC = Spec(
    name="fig09",
    description="Figure 9: the transfer hint and the low threshold (Giraph)",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
