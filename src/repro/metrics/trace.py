"""GC/execution trace export (CSV), the raw series behind the figures.

The paper's artifact emits CSVs that its plotting scripts consume; this
module provides the same: per-cycle GC records (Figure 7), the execution
breakdown (Figures 6/8/12), and per-region liveness (Figure 10).
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, List

from ..gc.base import GCCycle
from ..runtime import JavaVM
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


def gc_timeline_csv(cycles: Iterable[GCCycle]) -> str:
    """CSV of per-cycle GC records: the Figure 7 series."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
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
        ]
    )
    for c in cycles:
        writer.writerow(
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
        )
    return out.getvalue()


def breakdown_csv(vm: JavaVM, label: str = "run") -> str:
    """One-row CSV of the four-way execution-time breakdown."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    breakdown = vm.breakdown()
    writer.writerow(["label", "total_s"] + list(breakdown))
    writer.writerow(
        [label, f"{vm.elapsed():.6f}"]
        + [f"{v:.6f}" for v in breakdown.values()]
    )
    return out.getvalue()


def region_liveness_csv(liveness: List[RegionLiveness]) -> str:
    """CSV of per-region liveness: the Figure 10 CDF inputs."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "total_objects",
            "live_objects",
            "live_object_fraction",
            "used_bytes",
            "live_bytes",
            "live_space_fraction",
            "unused_fraction",
        ]
    )
    for lv in liveness:
        writer.writerow(
            [
                lv.total_objects,
                lv.live_objects,
                f"{lv.live_object_fraction:.4f}",
                lv.used_bytes,
                lv.live_bytes,
                f"{lv.live_space_fraction:.4f}",
                f"{lv.unused_fraction:.4f}",
            ]
        )
    return out.getvalue()


def streaming_blocks_csv(result) -> str:
    """CSV of a streaming action's per-block records.

    ``result`` is a
    :class:`~repro.frameworks.spark.streaming.StreamResult`; one row per
    dispatched block with its admission stalls and final fate
    (consumed / persisted / spilled-h2 / spilled-ser), plus a trailing
    ``totals`` row carrying the run-wide streaming counters.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["partition", "block", "chunks", "bytes", "admit_stalls", "fate"]
    )
    for row in result.block_rows:
        writer.writerow(
            [
                row["partition"],
                row["block"],
                row["chunks"],
                row["bytes"],
                row["admit_stalls"],
                row["fate"],
            ]
        )
    writer.writerow(
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
    return out.getvalue()


def server_tenants_csv(report) -> str:
    """CSV of a server box run: one row per co-located tenant.

    ``report`` is a :class:`~repro.server.box.BoxReport`; a trailing
    ``box`` row carries the aggregate (makespan, throughput, device
    saturation, fairness gap, arbitration epochs).
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
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
    )
    for t in report.tenants:
        writer.writerow(
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
        )
    writer.writerow(
        [
            "box",
            report.spec_tenants,
            "arbiter" if report.arbiter else "static",
            f"{report.makespan:.6f}",
            f"{report.aggregate_throughput:.3f}",
            f"{report.fairness_gap:.6f}",
            f"{report.device_busy_fraction:.6f}",
            f"epochs={report.epochs}",
            "",
            "",
            "",
            "",
            "",
            "",
            "",
        ]
    )
    return out.getvalue()


def resilience_events_csv(log) -> str:
    """CSV of a :class:`~repro.faults.events.ResilienceLog`'s timeline."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time_s", "event", "op_or_device", "kind", "detail"])
    for event in log.faults:
        writer.writerow(
            [f"{event.time:.6f}", "fault", event.device, event.kind, event.detail]
        )
    for event in log.retries:
        kind = "success" if event.success else "exhausted"
        if not event.success and event.reason:
            kind = f"exhausted:{event.reason}"
        writer.writerow(
            [
                f"{event.time:.6f}",
                "retry",
                event.op,
                kind,
                f"attempts={event.attempts} backoff={event.delay:.6f}",
            ]
        )
    for event in log.stalls:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "stall",
                event.device,
                event.op,
                f"seconds={event.seconds:.6f}",
            ]
        )
    for event in log.health:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "health",
                event.device,
                f"{event.old}->{event.new}",
                event.reason,
            ]
        )
    for event in log.circuit:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "circuit",
                "h2-governor",
                f"{event.old}->{event.new}",
                event.reason,
            ]
        )
    for event in log.degradations:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "degradation",
                "h2",
                f"failures={event.failures}",
                event.reason,
            ]
        )
    for event in log.crashes:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "crash",
                "process",
                event.safepoint,
                event.detail,
            ]
        )
    for event in log.recoveries:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "recovery",
                "h2",
                f"recovered={event.recovered} quarantined={event.quarantined}",
                event.detail,
            ]
        )
    for event in log.restarts:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "restart",
                "executor",
                f"incarnation={event.incarnation}",
                event.detail,
            ]
        )
    for event in log.adoptions:
        writer.writerow(
            [
                f"{event.time:.6f}",
                "adoption",
                event.label,
                event.outcome,
                event.detail,
            ]
        )
    return out.getvalue()


def write_csv(path: str, content: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(content)
