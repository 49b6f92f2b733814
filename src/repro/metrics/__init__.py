"""Result collection: execution-time breakdowns, per-run reports, the
gated experiments' CSV ledgers, and GC-schedule Chrome Trace Event
JSON."""

from .chrome_trace import chrome_trace_events, chrome_trace_json, vm_engine
from .report import ExperimentResult, collect_result

__all__ = [
    "ExperimentResult",
    "chrome_trace_events",
    "chrome_trace_json",
    "collect_result",
    "vm_engine",
]
