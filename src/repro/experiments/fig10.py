"""Figure 10 + Table 5: H2 storage-capacity consumption.

Figure 10 plots, over all allocated H2 regions (reclaimed during the run
plus active at shutdown), the CDFs of (top) the fraction of live objects
per region and (bottom) the fraction of region space occupied by live
objects, for 16 MB and 256 MB regions.  The paper's findings: PR/CDLP/WCC
reclaim ~90% of their regions (message stores die wholesale); BFS/SSSP
reclaim far fewer (long-lived edges pin regions) and show regions that are
mostly-live by object count but sparse by bytes (large dead arrays).

The liveness measurement itself is offline analysis — TeraHeap never scans
H2 — so the traversal here charges no simulated time, exactly like the
authors' external measurement harness.

The full matrix adds two ablations, compared on regions reclaimed during
the run: region groups vs dependency lists on PR (§3.3) and size-aware
placement on BFS (§7.3).  The smoke matrix is PR at 16 MB regions on the
small smoke dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..faults.session import RunSession
from ..heap.object_model import SpaceId
from ..runtime import JavaVM
from ..teraheap.regions import RegionLiveness
from ..units import mb
from .configs import GIRAPH_WORKLOADS_TABLE4, giraph_size
from .harness import Cell, Params, Spec, nest
from .runner import run_giraph_workload

#: ablation variant -> TeraHeap overrides
VARIANTS = {
    "groups": {"region_policy": "groups"},
    "size-aware": {"size_aware_placement": True},
}


def compute_h2_liveness(vm: JavaVM) -> List[RegionLiveness]:
    """Offline reachability over H1+H2, then per-region statistics."""
    if vm.h2 is None:
        return []
    epoch = vm.collector.next_epoch()
    stack = [o for o in vm.roots]
    while stack:
        obj = stack.pop()
        if obj.mark_epoch >= epoch or obj.space is SpaceId.FREED:
            continue
        obj.mark_epoch = epoch
        stack.extend(
            r for r in obj.refs if r.mark_epoch < epoch
        )
    return vm.h2.finalize_liveness_stats(epoch)


@dataclass
class RegionCDF:
    """One (workload, region size) Figure 10 series."""

    workload: str
    region_size_mb: int
    liveness: List[RegionLiveness] = field(default_factory=list)
    #: regions H2 reclaimed during the run (the ablations' measure)
    regions_reclaimed: int = 0

    @property
    def allocated_regions(self) -> int:
        return len(self.liveness)

    @property
    def reclaimed_fraction(self) -> float:
        if not self.liveness:
            return 0.0
        dead = sum(1 for lv in self.liveness if lv.live_objects == 0)
        return dead / len(self.liveness)

    def live_object_fractions(self) -> List[float]:
        return sorted(lv.live_object_fraction for lv in self.liveness)

    def live_space_fractions(self) -> List[float]:
        return sorted(lv.live_space_fraction for lv in self.liveness)

    def mean_unused_fraction(self) -> float:
        if not self.liveness:
            return 0.0
        return sum(lv.unused_fraction for lv in self.liveness) / len(
            self.liveness
        )


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    if smoke:
        matrix = [("PR", 16, None)]
    else:
        matrix = [
            (name, size_mb, None)
            for name in GIRAPH_WORKLOADS_TABLE4
            for size_mb in (16, 256)
        ] + [("PR", 16, "groups"), ("BFS", 16, "size-aware")]
    return [
        (
            f"{name}@{size_mb}MB" + (f"/{variant}" if variant else ""),
            dict(
                workload=name,
                region_size_mb=size_mb,
                variant=variant,
                **giraph_size(name, smoke),
            ),
        )
        for name, size_mb, variant in matrix
    ]


def run_cell(
    workload: str,
    region_size_mb: int,
    dram_gb: int,
    dataset_gb: Optional[int] = None,
    variant: Optional[str] = None,
    session: Optional[RunSession] = None,
) -> RegionCDF:
    _, vm, _ = run_giraph_workload(
        workload,
        "giraph-th",
        dram_gb,
        GIRAPH_WORKLOADS_TABLE4[workload],
        dataset_gb=dataset_gb,
        teraheap_overrides={
            "region_size": mb(region_size_mb),
            **VARIANTS.get(variant, {}),
        },
        session=session,
    )
    return RegionCDF(
        workload=workload,
        region_size_mb=region_size_mb,
        liveness=compute_h2_liveness(vm),
        regions_reclaimed=vm.h2.regions_reclaimed,
    )


def _series(cells: List[Cell]) -> Dict[str, Dict[int, RegionCDF]]:
    """The figure's series (no ablation) by workload and region size."""
    return nest(cells, "workload", "region_size_mb", variant=None)


def _ablations(cells: List[Cell]) -> List[Tuple[str, str, int, int]]:
    """(workload, variant, regions reclaimed by the default and by the
    variant) per ablation cell."""
    series = _series(cells)
    out = []
    for c in cells:
        name, variant = c.params["workload"], c.params["variant"]
        if variant:
            default = series[name][c.params["region_size_mb"]]
            out.append((name, variant, default.regions_reclaimed,
                        c.result.regions_reclaimed))
    return out


def check(cells: List[Cell]) -> List[str]:
    """Every series allocates regions and plots well-formed CDFs; PR
    reclaims over 20% of its regions, and at 16 MB more than BFS, as CDLP
    does more than SSSP (message stores die wholesale); dependency lists
    reclaim at least as many regions as groups, and size-aware placement
    at least as many as the default."""
    failures = []
    reclaimed = {}
    for c in cells:
        cdf = c.result
        if not cdf.allocated_regions:
            failures.append(f"{c.key}: no H2 region allocated")
        if not 0 <= cdf.reclaimed_fraction <= 1:
            failures.append(f"{c.key}: reclaimed fraction out of [0, 1]")
        for series in (cdf.live_object_fractions(), cdf.live_space_fractions()):
            if series != sorted(series) or not all(0 <= f <= 1 for f in series):
                failures.append(f"{c.key}: malformed CDF series")
        if c.params["variant"] is None:
            reclaimed[cdf.workload, cdf.region_size_mb] = round(
                cdf.reclaimed_fraction, 3
            )
            if cdf.workload == "PR" and cdf.reclaimed_fraction <= 0.2:
                failures.append(
                    f"{c.key}: reclaims {cdf.reclaimed_fraction:.0%} (<= 20%)"
                )
    for more, fewer in (("PR", "BFS"), ("CDLP", "SSSP")):
        a, b = reclaimed.get((more, 16)), reclaimed.get((fewer, 16))
        if a is not None and b is not None and a <= b:
            failures.append(
                f"{more} reclaims {a:.0%} at 16 MB, {fewer} {b:.0%}"
            )
    for workload, variant, default, changed in _ablations(cells):
        if variant == "groups" and changed > default:
            failures.append(
                f"{workload}: groups reclaim {changed} regions, "
                f"dependency lists only {default}"
            )
        if variant == "size-aware" and changed < default:
            failures.append(
                f"{workload}: size-aware placement reclaims {changed} "
                f"regions, default {default}"
            )
    return failures


def format_results(results: Dict[str, List[RegionCDF]]) -> str:
    lines = []
    for name, series in results.items():
        for cdf in series:
            lines.append(
                f"{name} @{cdf.region_size_mb}MB regions: "
                f"allocated={cdf.allocated_regions} "
                f"reclaimed={cdf.reclaimed_fraction:.0%} "
                f"unused={cdf.mean_unused_fraction():.1%}"
            )
    return "\n".join(lines)


def report(cells: List[Cell]) -> str:
    """The figure's series, then one line per ablation."""
    series = {name: list(s.values()) for name, s in _series(cells).items()}
    lines = [format_results(series)]
    lines += [
        f"{workload} regions reclaimed: default={default} {variant}={changed}"
        for workload, variant, default, changed in _ablations(cells)
    ]
    return "\n".join(lines)


SPEC = Spec(
    name="fig10",
    description="Figure 10: live objects and live space per H2 region",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
