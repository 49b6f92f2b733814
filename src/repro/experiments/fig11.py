"""Figure 11: GC overheads of the TeraHeap mechanisms (Giraph).

(a) Minor-GC time for H2 card segment sizes 1/4/8/16 KB normalised to
512 B segments: bigger segments shrink the card table (less checking) but
make each dirty-segment scan costlier; the paper measures a 64% average
reduction at 16 KB.

(b) The four major-GC phases (marking / precompact / adjust / compact)
under Giraph-OOC vs TeraHeap: TeraHeap improves every phase (up to 75%)
by never scanning H2, but its compaction phase carries the device I/O of
object transfer (37-44% of major GC).

The full matrix adds two card-table ablations on PR (§3.4): two-state
cards (minor GC rescans old-only segments) and sticky boundary cards
instead of stripe-aligned objects.  The smoke matrix is (a) on PR at
512 B and 16 KB and (b) on BFS, on the small smoke dataset.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..faults.session import RunSession
from ..units import KiB
from .configs import GIRAPH_WORKLOADS_TABLE4, giraph_size
from .harness import Cell, Params, Spec, nest
from .runner import run_giraph_workload

CARD_SEGMENT_SIZES = [512, 1 * KiB, 4 * KiB, 8 * KiB, 16 * KiB]

#: card-table ablation -> TeraHeap overrides (panel "cards")
VARIANTS = {
    "two-state": {"four_state_cards": False},
    "sticky-boundary": {"stripe_aligned": False},
}


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    def cell(panel, name, system="giraph-th", segment=None, variant=None):
        label = variant or (f"{segment}B" if segment else system)
        return f"{panel}/{name}/{label}", dict(
            panel=panel,
            workload=name,
            system=system,
            card_segment_size=segment,
            variant=variant,
            **giraph_size(name, smoke),
        )

    sweep = ["PR"] if smoke else ["PR", "CDLP", "WCC"]
    segments = [512, 16 * KiB] if smoke else CARD_SEGMENT_SIZES
    phases = ["BFS"] if smoke else GIRAPH_WORKLOADS_TABLE4
    out = [cell("a", name, segment=seg) for name in sweep for seg in segments]
    out += [
        cell("b", name, system)
        for name in phases
        for system in ("giraph-ooc", "giraph-th")
    ]
    if not smoke:
        out += [cell("cards", "PR", segment=8 * KiB, variant=v) for v in VARIANTS]
    return out


def run_cell(
    panel: str,
    workload: str,
    system: str,
    dram_gb: int,
    dataset_gb: Optional[int] = None,
    card_segment_size: Optional[int] = None,
    variant: Optional[str] = None,
    session: Optional[RunSession] = None,
) -> Union[float, Dict[str, float]]:
    """Panel (b): major-GC seconds per phase.  Panel (a) and the card
    ablations: minor-GC seconds of the H2 component the paper plots (the
    card scan + backward-reference maintenance)."""
    overrides = dict(VARIANTS.get(variant, {}))
    if card_segment_size:
        overrides["card_segment_size"] = card_segment_size
    _, vm, _ = run_giraph_workload(
        workload,
        system,
        dram_gb,
        GIRAPH_WORKLOADS_TABLE4[workload],
        dataset_gb=dataset_gb,
        teraheap_overrides=overrides or None,
        session=session,
    )
    if panel == "b":
        return vm.collector.stats.phase_totals()
    return vm.clock.sub_total("h2_minor_scan")


def _card_sweep(cells: List[Cell]) -> Dict[str, Dict[int, float]]:
    return nest(cells, "workload", "card_segment_size", panel="a")


def _phases(cells: List[Cell]) -> Dict[str, Dict[str, Dict[str, float]]]:
    return nest(cells, "workload", "system", panel="b")


def _ablations(cells: List[Cell]) -> List[Tuple[str, float, float]]:
    """(variant, default's, variant's H2 minor-scan seconds) per card
    ablation; the default is panel (a)'s PR cell at the same segment."""
    sweep = _card_sweep(cells)
    return [
        (
            c.params["variant"],
            sweep["PR"][c.params["card_segment_size"]],
            c.result,
        )
        for c in cells
        if c.params["panel"] == "cards"
    ]


def check(cells: List[Cell]) -> List[str]:
    """(a) 16 KB segments scan less than 512 B ones; (b) TeraHeap's major
    GC is cheaper overall and on all but one workload (BFS included), its
    compaction is over 20% of it, and OOC reports marking and compaction;
    neither card ablation scans less than the default (1% slack)."""
    failures = []
    for name, per_size in _card_sweep(cells).items():
        if per_size[16 * KiB] >= per_size[512]:
            failures.append(
                f"{name}: 16 KB segments scan {per_size[16 * KiB]:.3f} s, "
                f"512 B {per_size[512]:.3f} s"
            )
    phases = _phases(cells)
    wins = 0
    total_ooc = total_th = 0.0
    for name, per_system in phases.items():
        ooc_phases = per_system["giraph-ooc"]
        th_phases = per_system["giraph-th"]
        ooc, th = sum(ooc_phases.values()), sum(th_phases.values())
        total_ooc += ooc
        total_th += th
        wins += th < ooc
        if name == "BFS" and th >= ooc:
            failures.append(
                f"BFS: TeraHeap major GC {th:.1f} s vs OOC {ooc:.1f} s"
            )
        if th_phases.get("compact", 0) <= 0.2 * th:
            failures.append(
                f"{name}: TeraHeap compaction is <= 20% of major GC"
            )
        if not set(ooc_phases) >= {"marking", "compact"}:
            failures.append(f"{name}: OOC phases {sorted(ooc_phases)}")
    if wins < len(phases) - 1:
        failures.append(f"TeraHeap major GC wins on {wins}/{len(phases)}")
    if phases and total_th >= total_ooc:
        failures.append(
            f"TeraHeap major GC {total_th:.1f} s vs OOC {total_ooc:.1f} s"
        )
    for variant, default, changed in _ablations(cells):
        if default > changed * 1.01:
            failures.append(
                f"PR: default cards scan {default:.3f} s, "
                f"{variant} {changed:.3f} s"
            )
    return failures


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


def report(cells: List[Cell]) -> str:
    """Panel (a), panel (b), then one line per card ablation."""
    lines = [
        format_card_sweep(_card_sweep(cells)),
        format_phases(_phases(cells)),
    ]
    lines += [
        f"PR H2 minor-scan time: default={default:.3f}s "
        f"{variant}={changed:.3f}s"
        for variant, default, changed in _ablations(cells)
    ]
    return "\n".join(lines)


SPEC = Spec(
    name="fig11",
    description="Figure 11: H2 card segment sweep and major-GC phases (Giraph)",
    cells=cells,
    run_cell=run_cell,
    check=check,
    report=report,
)
