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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..faults.session import RunSession
from ..heap.object_model import SpaceId
from ..runtime import JavaVM
from ..teraheap.regions import RegionLiveness
from ..units import mb
from .configs import GIRAPH_WORKLOADS_TABLE4
from .runner import run_giraph_workload


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


def run(
    workloads: List[str] = None,
    region_sizes_mb: List[int] = (16, 256),
    session: Optional[RunSession] = None,
) -> Dict[str, List[RegionCDF]]:
    out: Dict[str, List[RegionCDF]] = {}
    for name in workloads or list(GIRAPH_WORKLOADS_TABLE4):
        cfg = GIRAPH_WORKLOADS_TABLE4[name]
        series = []
        for size_mb in region_sizes_mb:
            _, vm, _ = run_giraph_workload(
                name,
                "giraph-th",
                cfg.drams[-1],
                cfg,
                teraheap_overrides={"region_size": mb(size_mb)},
                session=session,
            )
            series.append(
                RegionCDF(
                    workload=name,
                    region_size_mb=size_mb,
                    liveness=compute_h2_liveness(vm),
                )
            )
        out[name] = series
    return out


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


if __name__ == "__main__":  # pragma: no cover
    print(format_results(run(workloads=["PR", "BFS"])))
