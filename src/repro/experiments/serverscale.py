"""Serverscale matrix: co-located tenant VMs on one shared device.

The paper evaluates TeraHeap one JVM at a time; this experiment asks
the server question its motivation implies (Section 1): what happens
when N executor JVMs share one NVMe device and one DRAM budget?  A
:class:`~repro.server.box.ServerBox` boots N tenants — private heap
stores, per-tenant DRAM carves, one shared page-cache budget and one
bandwidth-arbitrated device — and runs heterogeneous cached-analytics
jobs under a deterministic min-clock scheduler.

Each cell of the (tenant count x mean dataset size) sweep runs three
boxes:

- a **uniform** box (equal datasets, arbiter on) measuring the
  aggregate-throughput and device-saturation curve as tenants are
  packed on;
- a **mixed** box (datasets spread ±60% around the mean, arbiter on)
  and its **control** twin (static 1/N bandwidth shares, static equal
  H2/DR2 budgets, fixed watermarks) measuring per-tenant fairness.

Acceptance: aggregate throughput grows from one tenant to two and ends
sublinear (the device saturates — busy fraction rises toward 1); the
work-conserving arbiter never loses aggregate throughput vs the static
control; and it *narrows* the max/min per-tenant progress-rate gap on
every mixed cell — heavy tenants borrow bandwidth the moment light
siblings finish instead of crawling at a frozen 1/N share.  Every cell
is byte-identical when run twice (the experiment harness runs it twice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..metrics.chrome_trace import server_chrome_trace_json
from ..metrics.trace import server_tenants_csv
from ..server import ServerBox, ServerSpec
from ..server.box import BoxReport
from ..units import fmt_bytes, gb
from .harness import Cell, Params, Spec, handle

#: tenant-count sweep (the x-axis of the saturation curve)
TENANT_COUNTS: Tuple[int, ...] = (1, 2, 4, 6)
#: mean per-tenant dataset sweep (paper-scale GB)
DATASET_SIZES_GB: Tuple[float, ...] = (0.5, 1.0)
#: dataset heterogeneity of the mixed/control boxes
SPREAD = 0.6


def make_spec(
    tenants: int, mean_gb: float, arbiter: bool, spread: float
) -> ServerSpec:
    return ServerSpec(
        tenants=tenants,
        mean_dataset_bytes=gb(mean_gb),
        arbiter=arbiter,
        spread=spread,
    )


@dataclass
class CellResult:
    """One (tenant count, mean dataset) cell: uniform + mixed + control."""

    tenants: int
    mean_gb: float
    uniform_throughput: float = 0.0
    uniform_busy: float = 0.0
    uniform_makespan: float = 0.0
    mixed_throughput: float = 0.0
    mixed_gap: float = 0.0
    mixed_p99: float = 0.0
    mixed_epochs: int = 0
    control_throughput: float = 0.0
    control_gap: float = 0.0
    control_p99: float = 0.0
    #: canonical per-tenant lines + epoch log digests, determinism-gated
    detail: List[str] = field(default_factory=list)
    #: the mixed box and its report, for the CSV/trace artifacts
    mixed_box: Optional[ServerBox] = handle()
    mixed_report: Optional[BoxReport] = handle()

    def row(self) -> str:
        return (
            f"{self.tenants:3d} {self.mean_gb:5.2f}GB "
            f"agg={self.uniform_throughput:11,.0f} B/s "
            f"busy={self.uniform_busy:5.3f} "
            f"gap: arbiter={self.mixed_gap:6.3f} "
            f"control={self.control_gap:6.3f} "
            f"p99: {self.mixed_p99 * 1e3:7.2f}ms/"
            f"{self.control_p99 * 1e3:7.2f}ms "
            f"epochs={self.mixed_epochs:3d}"
        )


def _describe(tag: str, report: BoxReport) -> List[str]:
    lines = []
    for t in report.tenants:
        lines.append(
            "%s\t%s\tdata=%d\tdone=%.9f\tgc=%.9f\tstalls=%d\t"
            "h2=%d\thit=%.6f\trd=%d\twr=%d"
            % (
                tag,
                t.name,
                t.dataset_bytes,
                t.finish_time,
                t.gc_seconds,
                t.alloc_stalls,
                t.h2_moved_bytes,
                t.cache_hit_ratio,
                t.device_read,
                t.device_written,
            )
        )
    lines.extend(f"{tag}\t{line}" for line in report.epoch_log)
    return lines


def _box_p99(report: BoxReport) -> float:
    return max((t.p99_pause for t in report.tenants), default=0.0)


def run_cell(tenants: int, mean_gb: float) -> CellResult:
    cell = CellResult(tenants=tenants, mean_gb=mean_gb)
    uniform = ServerBox(
        make_spec(tenants, mean_gb, arbiter=True, spread=0.0)
    ).run()
    cell.uniform_throughput = uniform.aggregate_throughput
    cell.uniform_busy = uniform.device_busy_fraction
    cell.uniform_makespan = uniform.makespan
    cell.mixed_box = ServerBox(
        make_spec(tenants, mean_gb, arbiter=True, spread=SPREAD)
    )
    mixed = cell.mixed_report = cell.mixed_box.run()
    cell.mixed_throughput = mixed.aggregate_throughput
    cell.mixed_gap = mixed.fairness_gap
    cell.mixed_p99 = _box_p99(mixed)
    cell.mixed_epochs = mixed.epochs
    control = ServerBox(
        make_spec(tenants, mean_gb, arbiter=False, spread=SPREAD)
    ).run()
    cell.control_throughput = control.aggregate_throughput
    cell.control_gap = control.fairness_gap
    cell.control_p99 = _box_p99(control)
    cell.detail.extend(_describe("uniform", uniform))
    cell.detail.extend(_describe("mixed", mixed))
    cell.detail.extend(_describe("control", control))
    return cell


def check_cells(cells: List[CellResult]) -> List[str]:
    """Acceptance assertions over one completed matrix."""
    failures: List[str] = []
    by_mean = {}
    for cell in cells:
        by_mean.setdefault(cell.mean_gb, []).append(cell)
        where = f"{cell.tenants}x{cell.mean_gb:g}GB"
        if cell.tenants > 1:
            if cell.mixed_gap >= cell.control_gap:
                failures.append(
                    f"{where}: arbiter gap {cell.mixed_gap:.3f} does not "
                    f"narrow the control's {cell.control_gap:.3f}"
                )
            if cell.mixed_throughput < 0.95 * cell.control_throughput:
                failures.append(
                    f"{where}: arbiter throughput "
                    f"{cell.mixed_throughput:,.0f} B/s loses >5% to the "
                    f"static control {cell.control_throughput:,.0f} B/s"
                )
    for mean_gb, column in by_mean.items():
        column = sorted(column, key=lambda c: c.tenants)
        first, last = column[0], column[-1]
        if len(column) < 2 or first.tenants == last.tenants:
            continue
        if column[1].uniform_throughput <= first.uniform_throughput:
            failures.append(
                f"{mean_gb:g}GB: aggregate throughput does not grow from "
                f"{first.tenants} to {column[1].tenants} tenants "
                f"({first.uniform_throughput:,.0f} -> "
                f"{column[1].uniform_throughput:,.0f} B/s)"
            )
        scaling = last.uniform_throughput / first.uniform_throughput
        if scaling >= last.tenants / first.tenants:
            failures.append(
                f"{mean_gb:g}GB: throughput scaled {scaling:.2f}x over "
                f"{last.tenants / first.tenants:.0f}x tenants — no "
                "saturation"
            )
        if last.uniform_busy <= first.uniform_busy:
            failures.append(
                f"{mean_gb:g}GB: device busy fraction fell from "
                f"{first.uniform_busy:.3f} ({first.tenants} tenants) to "
                f"{last.uniform_busy:.3f} ({last.tenants} tenants)"
            )
        peak = max(c.uniform_throughput for c in column)
        if last.uniform_throughput < 0.85 * peak:
            failures.append(
                f"{mean_gb:g}GB: throughput collapses past saturation "
                f"({last.uniform_throughput:,.0f} B/s at {last.tenants} "
                f"tenants vs peak {peak:,.0f} B/s)"
            )
    return failures


def cells(smoke: bool) -> List[Tuple[str, Params]]:
    counts = (TENANT_COUNTS[0], TENANT_COUNTS[-2]) if smoke else TENANT_COUNTS
    sizes = (DATASET_SIZES_GB[0],) if smoke else DATASET_SIZES_GB
    return [
        (f"{tenants}x{mean_gb:g}GB", dict(tenants=tenants, mean_gb=mean_gb))
        for mean_gb in sizes
        for tenants in counts
    ]


def report(cells: List[Cell]) -> str:
    spec = ServerSpec()
    lines = [
        f"serverscale: shared H2 {fmt_bytes(spec.h2_capacity)}, "
        f"DR2 budget {fmt_bytes(spec.dr2_budget)}, "
        f"epoch {spec.epoch_seconds:g}s, spread ±{SPREAD:.0%}",
        "  N  dataset   uniform aggregate    device   "
        "fairness gap (mixed)     worst p99 pause",
    ]
    lines.extend(cell.result.row() for cell in cells)
    return "\n".join(lines)


SPEC = Spec(
    name="serverscale",
    description=(
        "multi-tenant server box: tenant count x dataset size, "
        "arbitrated vs static sharing"
    ),
    cells=cells,
    run_cell=run_cell,
    check=lambda cells: check_cells([cell.result for cell in cells]),
    report=report,
    # The largest cell's mixed box: per-tenant rows and tenant lanes.
    csv=lambda cells: server_tenants_csv(cells[-1].result.mixed_report),
    trace=lambda cells: server_chrome_trace_json(cells[-1].result.mixed_box),
)
