"""Per-run experiment results, matching the paper's reporting.

Each run yields an :class:`ExperimentResult` with the four-way execution
time breakdown (other / S/D+I/O / minor GC / major GC), GC counts, and
device traffic.  OOM runs carry ``oom=True`` and are rendered as the
paper's missing bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..runtime import JavaVM


@dataclass
class ExperimentResult:
    """One (workload, system, DRAM) cell of a paper figure."""

    workload: str
    system: str
    dram_gb: float
    heap_gb: float
    total: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    minor_gcs: int = 0
    major_gcs: int = 0
    oom: bool = False
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.system}@{self.dram_gb:g}GB"

    def share(self, bucket: str) -> float:
        if self.total <= 0:
            return 0.0
        return self.breakdown.get(bucket, 0.0) / self.total

    def row(self, baseline_total: Optional[float] = None) -> str:
        """One printable table row (normalised if a baseline is given)."""
        if self.oom:
            return f"{self.label:<32s}  OOM"
        norm = self.total / baseline_total if baseline_total else 1.0
        parts = "  ".join(
            f"{k}={v / self.total:5.1%}" for k, v in self.breakdown.items()
        )
        return f"{self.label:<32s}  norm={norm:6.3f}  total={self.total:9.1f}s  {parts}"


def collect_result(
    vm: JavaVM,
    workload: str,
    system: str,
    dram_gb: float,
    heap_gb: float,
    oom: bool = False,
    extras: Optional[Dict[str, float]] = None,
) -> ExperimentResult:
    """Assemble a result from a finished (or OOMed) VM."""
    breakdown = vm.breakdown()
    result = ExperimentResult(
        workload=workload,
        system=system,
        dram_gb=dram_gb,
        heap_gb=heap_gb,
        total=sum(breakdown.values()),
        breakdown=breakdown,
        minor_gcs=vm.collector.stats.minor_count,
        major_gcs=vm.collector.stats.major_count,
        oom=oom,
        extras=dict(extras or {}),
    )
    if vm.h2 is not None:
        result.extras.setdefault(
            "h2_regions_allocated", vm.h2.regions_allocated_total
        )
        result.extras.setdefault("h2_regions_reclaimed", vm.h2.regions_reclaimed)
        result.extras.setdefault("h2_bytes_moved", vm.h2.bytes_moved)
        result.extras.setdefault(
            "forward_refs_fenced",
            getattr(vm.collector, "forward_refs_fenced", 0),
        )
    res = getattr(vm, "resilience", None)
    auditor = getattr(vm, "auditor", None)
    if res is not None:
        result.extras.setdefault("faults_injected", res.plan.total_injected)
        result.extras.setdefault("faults_seen", res.log.faults_seen)
        result.extras.setdefault("ops_retried", res.log.ops_retried)
        result.extras.setdefault(
            "retry_exhaustions", res.log.retry_exhaustions
        )
        result.extras.setdefault("h2_degraded", int(res.degraded))
        result.extras.setdefault(
            "h2_transfers_denied",
            getattr(vm.collector, "h2_transfers_denied", 0),
        )
    governor = getattr(vm, "governor", None)
    if governor is not None:
        result.extras.setdefault("governor_trips", governor.trips)
        result.extras.setdefault("governor_probes", governor.probes)
        result.extras.setdefault("alloc_stalls", vm.alloc_stalls)
        result.extras.setdefault("emergency_gcs", vm.emergency_gcs)
    if auditor is not None:
        result.extras.setdefault("audits_run", auditor.audits_run)
        result.extras.setdefault(
            "invariant_violations", auditor.violations_found
        )
    return result

