"""Chrome-trace (``chrome://tracing`` / Perfetto) export of GC schedules.

When ``VMConfig.engine.trace`` is on, the GC task engine records one
complete ("ph": "X") event per executed task: which simulated worker ran
it, when it started on that worker's lane, how long it took (dispatch +
steal + task cost), and the phase it belonged to.  This module packages
those events as a Chrome Trace Event JSON document, so a GC cycle's
per-thread timeline — including steals and end-of-phase imbalance — can
be inspected visually.

Output is deterministic: events are emitted in execution order and the
JSON is serialized with sorted keys, so two runs with the same seed
produce byte-identical trace files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


def chrome_trace_events(engine: Any) -> List[Dict[str, Any]]:
    """The engine's task events plus thread-naming metadata events.

    ``engine`` is a :class:`~repro.gc.engine.GCTaskEngine`; its
    ``trace_events`` list is empty unless tracing was enabled in
    ``VMConfig.engine``.
    """
    events: List[Dict[str, Any]] = []
    workers = getattr(engine, "workers", 0)
    name = getattr(engine, "name", "gc")
    events.append(
        {
            "args": {"name": f"{name} engine"},
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
        }
    )
    for tid in range(workers):
        events.append(
            {
                "args": {"name": f"{name} worker {tid}"},
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
            }
        )
    events.extend(engine.trace_events)
    return events


def _instant(
    time: float, name: str, args: Dict[str, Any]
) -> Dict[str, Any]:
    """One global-scope instant event at simulated ``time`` seconds."""
    return {
        "args": args,
        "name": name,
        "ph": "i",
        "pid": 1,
        "s": "g",
        "tid": 0,
        "ts": round(time * 1e6, 3),
    }


def resilience_trace_events(log: Any) -> List[Dict[str, Any]]:
    """A :class:`~repro.faults.events.ResilienceLog` as instant events.

    Faults, retries, stalls, health/circuit transitions, degradations,
    crashes, recoveries, executor restarts and block adoptions render
    as global instant markers ("ph": "i",
    scope "g"), so fault activity lines up against the GC task lanes on
    the same timeline.
    """
    events: List[Dict[str, Any]] = []
    if log is None:
        return events
    for ev in log.faults:
        events.append(
            _instant(
                ev.time,
                f"fault:{ev.kind}",
                {"device": ev.device, "op": ev.op, "detail": ev.detail},
            )
        )
    for ev in log.retries:
        events.append(
            _instant(
                ev.time,
                "retry",
                {
                    "op": ev.op,
                    "attempts": ev.attempts,
                    "delay_s": ev.delay,
                    "success": ev.success,
                },
            )
        )
    for ev in log.stalls:
        events.append(
            _instant(
                ev.time,
                "stall",
                {"device": ev.device, "op": ev.op, "seconds": ev.seconds},
            )
        )
    for ev in log.health:
        events.append(
            _instant(
                ev.time,
                f"health:{ev.new}",
                {"device": ev.device, "from": ev.old, "reason": ev.reason},
            )
        )
    for ev in log.circuit:
        events.append(
            _instant(
                ev.time,
                f"circuit:{ev.new}",
                {"from": ev.old, "reason": ev.reason},
            )
        )
    for ev in log.degradations:
        events.append(
            _instant(
                ev.time,
                "degradation",
                {"reason": ev.reason, "failures": ev.failures},
            )
        )
    for ev in log.crashes:
        events.append(
            _instant(ev.time, f"crash:{ev.safepoint}", {"detail": ev.detail})
        )
    for ev in log.recoveries:
        events.append(
            _instant(
                ev.time,
                "recovery",
                {
                    "recovered": ev.recovered,
                    "quarantined": ev.quarantined,
                    "detail": ev.detail,
                },
            )
        )
    for ev in log.restarts:
        events.append(
            _instant(
                ev.time,
                "restart",
                {"incarnation": ev.incarnation, "detail": ev.detail},
            )
        )
    for ev in log.adoptions:
        events.append(
            _instant(
                ev.time,
                f"adoption:{ev.outcome}",
                {"label": ev.label, "detail": ev.detail},
            )
        )
    events.sort(key=lambda e: e["ts"])
    return events


def streaming_counter_events(result: Any) -> List[Dict[str, Any]]:
    """A streaming run's in-flight budget telemetry as counter events.

    ``result`` is a
    :class:`~repro.frameworks.spark.streaming.StreamResult`; every
    in-flight transition sampled during the run renders as a Chrome
    counter event ("ph": "C"), so the bounded in-flight byte series —
    and the spill/stall activity that bounded it — plots as a stacked
    counter track against the GC lanes.
    """
    events: List[Dict[str, Any]] = []
    if result is None:
        return events
    for time, inflight, spilled, stalls in result.counter_samples:
        events.append(
            {
                "args": {
                    "inflight_bytes": inflight,
                    "spilled_bytes": spilled,
                    "stalls": stalls,
                },
                "name": "stream_inflight",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": round(time * 1e6, 3),
            }
        )
    return events


def server_trace_events(box: Any) -> List[Dict[str, Any]]:
    """A server box run as per-tenant timeline lanes.

    ``box`` is a :class:`~repro.server.box.ServerBox` after
    :meth:`~repro.server.box.ServerBox.run`.  Each tenant renders as its
    own process (pid = tenant index + 2, pid 1 stays reserved for the
    single-VM engine layout): complete ("X") events for every GC pause,
    instant markers for recorded clock events (alloc stalls, restarts),
    all shifted by the tenant's ``base_time`` so lanes share the box
    timeline.  The arbiters contribute counter tracks on pid 1: each
    epoch's per-tenant bandwidth share and H2 byte budget.
    """
    events: List[Dict[str, Any]] = []
    for tenant in box.tenants:
        pid = tenant.index + 2
        events.append(
            {
                "args": {"name": f"tenant {tenant.name}"},
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
            }
        )
        for cycle in tenant.vm.collector.stats.cycles:
            events.append(
                {
                    "args": {
                        "reclaimed": cycle.reclaimed_bytes,
                        "to_h2": cycle.moved_to_h2_bytes,
                    },
                    "cat": "gc",
                    "dur": round(cycle.duration * 1e6, 3),
                    "name": cycle.kind,
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": round(
                        (tenant.base_time + cycle.start_time) * 1e6, 3
                    ),
                }
            )
        for time, name, duration in tenant.vm.clock.events:
            events.append(
                {
                    "args": {"duration_s": round(duration, 9)},
                    "name": name,
                    "ph": "i",
                    "pid": pid,
                    "s": "p",
                    "tid": 0,
                    "ts": round((tenant.base_time + time) * 1e6, 3),
                }
            )
    events.append(
        {
            "args": {"name": "box arbiters"},
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
        }
    )
    for record in box.pressure.records:
        events.append(
            {
                "args": {
                    name: round(share, 6)
                    for name, share in sorted(record.shares.items())
                },
                "name": "bw_share",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": round(record.time * 1e6, 3),
            }
        )
        events.append(
            {
                "args": dict(sorted(record.h2_budgets.items())),
                "name": "h2_budget",
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": round(record.time * 1e6, 3),
            }
        )
    return events


def server_chrome_trace_json(box: Any, label: str = "serverscale") -> str:
    """Serialize a finished server box as a Chrome Trace document."""
    report = box._report()
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "tenants": box.spec.tenants,
            "arbiter": box.spec.arbiter,
            "epochs": report.epochs,
            "makespan": round(report.makespan, 9),
            "aggregateThroughput": round(report.aggregate_throughput, 3),
            "deviceBusyFraction": round(report.device_busy_fraction, 6),
            "fairnessGap": round(report.fairness_gap, 6),
        },
        "traceEvents": server_trace_events(box),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def chrome_trace_json(
    engine: Any, label: str = "run", resilience: Any = None,
    streaming: Any = None,
) -> str:
    """Serialize an engine's schedule as a Chrome Trace Event document.

    ``resilience`` optionally adds a VM's :class:`ResilienceLog` as
    instant markers on the same timeline; ``streaming`` adds a
    :class:`~repro.frameworks.spark.streaming.StreamResult`'s in-flight
    counter track.
    """
    events = chrome_trace_events(engine)
    events.extend(resilience_trace_events(resilience))
    events.extend(streaming_counter_events(streaming))
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "label": label,
            "workers": getattr(engine, "workers", 0),
            "phases": getattr(engine, "total_phases", 0),
            "tasks": getattr(engine, "total_tasks", 0),
            "steals": getattr(engine, "total_steals", 0),
            "remoteSteals": getattr(engine, "total_remote_steals", 0),
            # Concurrent-phase critical-path seconds hidden behind the
            # mutator (never charged to any pause).
            "concurrentHidden": round(
                getattr(engine, "total_hidden_seconds", 0.0), 9
            ),
            "stealPolicy": getattr(engine, "steal_policy", "steal-one"),
            "numaNodes": getattr(engine, "numa_nodes", 1),
            # Per-phase attribution: one record per engine phase run, in
            # execution order (tasks/steals/idle/imbalance per phase).
            "phaseStats": list(getattr(engine, "phase_log", [])),
        },
        "traceEvents": events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def vm_engine(vm: Any) -> Optional[Any]:
    """The GC task engine of a VM's collector, if it has one."""
    return getattr(getattr(vm, "collector", None), "engine", None)


def write_chrome_trace(
    path: str, engine: Any, label: str = "run", resilience: Any = None,
    streaming: Any = None,
) -> None:
    """Write the engine's schedule to ``path`` (open with Perfetto or
    ``chrome://tracing``)."""
    with open(path, "w") as f:
        f.write(
            chrome_trace_json(
                engine, label=label, resilience=resilience,
                streaming=streaming,
            )
        )
