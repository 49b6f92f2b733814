"""Figure 11: GC overheads of the TeraHeap mechanisms (Giraph).

(a) Minor-GC time for H2 card segment sizes 1/4/8/16 KB normalised to
512 B segments: bigger segments shrink the card table (less checking) but
make each dirty-segment scan costlier; the paper measures a 64% average
reduction at 16 KB.

(b) The four major-GC phases (marking / precompact / adjust / compact)
under Giraph-OOC vs TeraHeap: TeraHeap improves every phase (up to 75%)
by never scanning H2, but its compaction phase carries the device I/O of
object transfer (37-44% of major GC).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults.session import RunSession
from ..units import KiB
from .configs import GIRAPH_WORKLOADS_TABLE4
from .runner import run_giraph_workload

CARD_SEGMENT_SIZES = [512, 1 * KiB, 4 * KiB, 8 * KiB, 16 * KiB]


def run_card_segment_sweep(
    workloads: List[str] = None,
    segment_sizes: List[int] = None,
    session: Optional[RunSession] = None,
) -> Dict[str, Dict[int, float]]:
    """Panel (a): minor-GC seconds per workload per card segment size."""
    out: Dict[str, Dict[int, float]] = {}
    for name in workloads or list(GIRAPH_WORKLOADS_TABLE4):
        cfg = GIRAPH_WORKLOADS_TABLE4[name]
        per_size = {}
        for seg in segment_sizes or CARD_SEGMENT_SIZES:
            result, vm, _ = run_giraph_workload(
                name,
                "giraph-th",
                cfg.drams[-1],
                cfg,
                teraheap_overrides={"card_segment_size": seg},
                session=session,
            )
            # The paper plots the *H2 component* of minor GC: the card
            # scan + backward-reference maintenance.
            per_size[seg] = vm.clock.sub_total("h2_minor_scan")
        out[name] = per_size
    return out


def run_major_phase_breakdown(
    workloads: List[str] = None,
    session: Optional[RunSession] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Panel (b): per-phase major GC seconds, OOC vs TeraHeap."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name in workloads or list(GIRAPH_WORKLOADS_TABLE4):
        cfg = GIRAPH_WORKLOADS_TABLE4[name]
        per_system = {}
        for system in ("giraph-ooc", "giraph-th"):
            _, vm, _ = run_giraph_workload(
                name, system, cfg.drams[-1], cfg, session=session
            )
            per_system[system] = vm.collector.stats.phase_totals()
        out[name] = per_system
    return out


def format_card_sweep(results: Dict[str, Dict[int, float]]) -> str:
    lines = []
    for name, per_size in results.items():
        base = per_size.get(512) or next(iter(per_size.values()))
        row = "  ".join(
            f"{seg//1024 or 0.5}KB={v / base:5.2f}" if base else "n/a"
            for seg, v in sorted(per_size.items())
        )
        lines.append(f"{name}: {row}")
    return "\n".join(lines)


def format_phases(results) -> str:
    lines = []
    for name, per_system in results.items():
        for system, phases in per_system.items():
            parts = "  ".join(f"{p}={v:8.1f}s" for p, v in phases.items())
            lines.append(f"{name} {system}: {parts}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(format_card_sweep(run_card_segment_sweep(workloads=["PR"])))
    print(format_phases(run_major_phase_breakdown(workloads=["PR"])))
