"""CSV export of the gated experiments' ledgers.

The streaming, server and resilience records behind ``--csv-out``.
Every exporter is one header and one row per record through
:func:`_csv`.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """``header`` then ``rows`` as CSV text with ``\\n`` line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


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
