"""Section 4's post-write-barrier overhead benchmark (DaCapo stand-in).

The paper measures the TeraHeap-extended barrier (an extra reference
range check in the interpreter/JIT templates) at <=3% of execution time
*on average across the DaCapo suite*, and exactly zero when
``EnableTeraHeap`` is off.  This driver runs the synthetic DaCapo profiles
in :mod:`repro.workloads.dacapo` with the flag on and off and reports
per-benchmark and average overheads: 10,000 operations per profile in
the full matrix, 2,000 in the smoke matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import TeraHeapConfig, VMConfig
from ..faults.session import RunSession
from ..runtime import JavaVM
from ..units import gb
from ..workloads.dacapo import DACAPO_PROFILES
from .harness import Cell, Params, Spec


@dataclass
class BarrierOverhead:
    baseline_time: float
    teraheap_time: float
    baseline_barriers: int
    teraheap_barriers: int
    #: per-profile overhead fractions (suite view)
    per_benchmark: Dict[str, float] = field(default_factory=dict)

    @property
    def overhead(self) -> float:
        if self.baseline_time <= 0:
            return 0.0
        return self.teraheap_time / self.baseline_time - 1.0

    @property
    def mean_overhead(self) -> float:
        if not self.per_benchmark:
            return self.overhead
        return sum(self.per_benchmark.values()) / len(self.per_benchmark)

    @property
    def max_overhead(self) -> float:
        if not self.per_benchmark:
            return self.overhead
        return max(self.per_benchmark.values())


def _run_suite(
    enabled: bool, operations: int, session: Optional[RunSession] = None
):
    """Run every profile on one VM configuration."""
    times = {}
    barriers = 0
    for name, profile in DACAPO_PROFILES.items():
        config = VMConfig(
            heap_size=gb(8),
            teraheap=TeraHeapConfig(enabled=enabled, h2_size=gb(64)),
        )
        vm = JavaVM(config, session=session)
        profile.run(vm, operations)
        times[name] = vm.elapsed()
        barriers += vm.barrier.barrier_count
    return times, barriers


def run(
    operations: int, session: Optional[RunSession] = None
) -> BarrierOverhead:
    """Run the suite with the barrier extension off and on."""
    base_times, base_barriers = _run_suite(False, operations, session)
    th_times, th_barriers = _run_suite(True, operations, session)
    per_benchmark = {
        name: (th_times[name] / base_times[name] - 1.0)
        if base_times[name]
        else 0.0
        for name in base_times
    }
    return BarrierOverhead(
        baseline_time=sum(base_times.values()),
        teraheap_time=sum(th_times.values()),
        baseline_barriers=base_barriers,
        teraheap_barriers=th_barriers,
        per_benchmark=per_benchmark,
    )


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    operations = 2000 if smoke else 10000
    return [(f"ops={operations}", dict(operations=operations))]


def check(cells: List[Cell]) -> List[str]:
    """Paper: <=3% overall and on average across the suite; no single
    profile above 5%.  Zero when disabled is structural (the check is not
    emitted)."""
    r = cells[0].result
    return [
        f"{cells[0].key}: {what} overhead {value:.2%} > {bound:.0%}"
        for what, value, bound in (
            ("overall", r.overhead, 0.03),
            ("mean", r.mean_overhead, 0.03),
            ("max", r.max_overhead, 0.05),
        )
        if value > bound
    ]


def format_result(result: BarrierOverhead) -> str:
    lines = ["benchmark    overhead"]
    for name, overhead in result.per_benchmark.items():
        lines.append(f"{name:<12s} {overhead:7.2%}")
    lines.append(f"{'average':<12s} {result.mean_overhead:7.2%}")
    lines.append(f"{'max':<12s} {result.max_overhead:7.2%}")
    return "\n".join(lines)


SPEC = Spec(
    name="barrier",
    description="Section 4: post-write-barrier overhead (DaCapo stand-in)",
    cells=cells,
    run_cell=run,
    check=check,
    report=lambda cells: format_result(cells[0].result),
)
