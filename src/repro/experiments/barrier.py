"""Section 4's post-write-barrier overhead benchmark (DaCapo stand-in).

The paper measures the TeraHeap-extended barrier (an extra reference
range check in the interpreter/JIT templates) at <=3% of execution time
*on average across the DaCapo suite*, and exactly zero when
``EnableTeraHeap`` is off.  This driver runs the synthetic DaCapo profiles
in :mod:`repro.workloads.dacapo` with the flag on and off and reports
per-benchmark and average overheads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..config import TeraHeapConfig, VMConfig
from ..faults.session import RunSession
from ..runtime import JavaVM
from ..units import gb
from ..workloads.dacapo import DACAPO_PROFILES


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
    updates: Optional[int] = None,
    operations: int = 5000,
    session: Optional[RunSession] = None,
) -> BarrierOverhead:
    """Run the suite with the barrier extension off and on.

    ``updates`` is accepted as an alias of ``operations`` for backwards
    compatibility with earlier callers.
    """
    if updates is not None:
        operations = updates
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


def format_result(result: BarrierOverhead) -> str:
    lines = ["benchmark    overhead"]
    for name, overhead in result.per_benchmark.items():
        lines.append(f"{name:<12s} {overhead:7.2%}")
    lines.append(f"{'average':<12s} {result.mean_overhead:7.2%}")
    lines.append(f"{'max':<12s} {result.max_overhead:7.2%}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_result(run()))
