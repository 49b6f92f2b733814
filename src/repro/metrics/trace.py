"""GC/execution trace export (CSV), the raw series behind the figures.

The paper's artifact emits CSVs that its plotting scripts consume; this
module provides the same: per-cycle GC records (Figure 7) and
per-region liveness (Figure 10), plus the streaming, server and
resilience ledgers of the gated experiments.  Every exporter is one
header and one row per record through :func:`_csv`.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List, Sequence

from ..gc.base import GCCycle
from ..teraheap.regions import RegionLiveness


def engine_phase_detail(cycle: GCCycle) -> str:
    """One cycle's per-phase engine stats, folded into a CSV-safe cell.

    ``phase:workers:tasks:steals:remote_steals:hidden_s:idle_s:
    imbalance`` per phase execution, ``|``-joined in execution order.
    """
    return "|".join(
        "{phase}:{workers}:{tasks}:{steals}:{remote_steals}:"
        "{hidden:.6f}:{idle:.6f}:{imb:.4f}".format(
            phase=p["phase"],
            workers=p["workers"],
            tasks=p["tasks"],
            steals=p["steals"],
            remote_steals=p["remote_steals"],
            hidden=p.get("hidden_s", 0.0),
            idle=p["idle_s"],
            imb=p["imbalance"],
        )
        for p in cycle.engine_phases
    )


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` then ``rows`` as CSV text with ``\\n`` line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def gc_timeline_csv(cycles: Iterable[GCCycle]) -> str:
    """CSV of per-cycle GC records: the Figure 7 series."""
    return _csv(
        [
            "kind",
            "start_time_s",
            "duration_s",
            "live_bytes",
            "reclaimed_bytes",
            "promoted_bytes",
            "moved_to_h2_bytes",
            "old_occupancy_after",
            "marking_s",
            "precompact_s",
            "adjust_s",
            "compact_s",
            "gc_threads",
            "tasks",
            "steals",
            "remote_steals",
            "idle_s",
            "imbalance",
            "parallel_speedup",
            "batch_scale",
            "concurrent_hidden_s",
            "remark_pause_s",
            "engine_phases",
        ],
        (
            [
                c.kind,
                f"{c.start_time:.6f}",
                f"{c.duration:.6f}",
                c.live_bytes,
                c.reclaimed_bytes,
                c.promoted_bytes,
                c.moved_to_h2_bytes,
                f"{c.old_occupancy_after:.4f}",
                f"{c.phases.get('marking', 0.0):.6f}",
                f"{c.phases.get('precompact', 0.0):.6f}",
                f"{c.phases.get('adjust', 0.0):.6f}",
                f"{c.phases.get('compact', 0.0):.6f}",
                c.gc_threads,
                c.tasks_executed,
                c.steals,
                c.remote_steals,
                f"{c.idle_seconds:.6f}",
                f"{c.imbalance:.4f}",
                f"{c.parallel_speedup:.4f}",
                f"{c.batch_scale:.4f}",
                f"{c.concurrent_hidden:.6f}",
                f"{c.remark_pause:.6f}",
                engine_phase_detail(c),
            ]
            for c in cycles
        ),
    )


def region_liveness_csv(liveness: List[RegionLiveness]) -> str:
    """CSV of per-region liveness: the Figure 10 CDF inputs."""
    return _csv(
        [
            "total_objects",
            "live_objects",
            "live_object_fraction",
            "used_bytes",
            "live_bytes",
            "live_space_fraction",
            "unused_fraction",
        ],
        (
            [
                lv.total_objects,
                lv.live_objects,
                f"{lv.live_object_fraction:.4f}",
                lv.used_bytes,
                lv.live_bytes,
                f"{lv.live_space_fraction:.4f}",
                f"{lv.unused_fraction:.4f}",
            ]
            for lv in liveness
        ),
    )


def streaming_blocks_csv(result) -> str:
    """CSV of a streaming action's per-block records.

    ``result`` is a
    :class:`~repro.frameworks.spark.streaming.StreamResult`; one row per
    dispatched block with its admission stalls and final fate
    (consumed / persisted / spilled-h2 / spilled-ser), plus a trailing
    ``totals`` row carrying the run-wide streaming counters.
    """
    columns = ["partition", "block", "chunks", "bytes", "admit_stalls", "fate"]
    rows = [[row[name] for name in columns] for row in result.block_rows]
    rows.append(
        [
            "totals",
            result.blocks,
            result.peak_inflight_bytes,
            result.spill_bytes,
            result.backpressure_stalls,
            f"spills={result.spills} unspills={result.unspills} "
            f"forced={result.forced_admissions} "
            f"stall_s={result.stall_seconds:.6f} "
            f"hidden_s={result.hidden_seconds:.6f}",
        ]
    )
    return _csv(columns, rows)


def server_tenants_csv(report) -> str:
    """CSV of a server box run: one row per co-located tenant.

    ``report`` is a :class:`~repro.server.box.BoxReport`; a trailing
    ``box`` row carries the aggregate (makespan, throughput, device
    saturation, fairness gap, arbitration epochs).
    """
    header = [
        "tenant",
        "dataset_bytes",
        "processed_bytes",
        "finish_s",
        "velocity_bps",
        "progress_rate",
        "gc_s",
        "stall_s",
        "alloc_stalls",
        "pauses",
        "p99_pause_s",
        "h2_moved_bytes",
        "cache_hit_ratio",
        "device_read",
        "device_written",
    ]
    rows = [
        [
            t.name,
            t.dataset_bytes,
            t.processed_bytes,
            f"{t.finish_time:.6f}",
            f"{t.velocity:.3f}",
            f"{t.progress_rate:.6f}",
            f"{t.gc_seconds:.6f}",
            f"{t.stall_seconds:.6f}",
            t.alloc_stalls,
            t.pauses,
            f"{t.p99_pause:.6f}",
            t.h2_moved_bytes,
            f"{t.cache_hit_ratio:.4f}",
            t.device_read,
            t.device_written,
        ]
        for t in report.tenants
    ]
    box = [
        "box",
        report.spec_tenants,
        "arbiter" if report.arbiter else "static",
        f"{report.makespan:.6f}",
        f"{report.aggregate_throughput:.3f}",
        f"{report.fairness_gap:.6f}",
        f"{report.device_busy_fraction:.6f}",
        f"epochs={report.epochs}",
    ]
    rows.append(box + [""] * (len(header) - len(box)))
    return _csv(header, rows)


def resilience_events_csv(log) -> str:
    """CSV of a :class:`~repro.faults.events.ResilienceLog`'s timeline,
    grouped by event kind."""
    return _csv(
        ["time_s", "event", "op_or_device", "kind", "detail"],
        (
            [f"{event.time:.6f}", event.event, *event.cells()]
            for event in log.grouped()
        ),
    )
