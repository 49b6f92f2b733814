"""The CSV and Chrome-trace exporters against a verbatim reference.

``tests/helpers.py`` keeps the exporters and the resilience log as they
stood before the log became one event stream.  Every case here renders
the same run with both and requires identical bytes: the gated
experiments' exported artifacts, a brownout and a chaoskill log, and
random logs of every event kind with tied timestamps and one or two
``absorb`` hops.
"""

import json
from functools import lru_cache

from hypothesis import given, settings, strategies as st

from helpers import (
    REFERENCE_KINDS,
    ReferenceResilienceLog,
    legacy_view,
    record_event,
    reference_chrome_trace_json,
    reference_resilience_events_csv,
    reference_resilience_trace_events,
    reference_server_chrome_trace_json,
    reference_server_tenants_csv,
    reference_streaming_blocks_csv,
)
from repro.devices.durability import image_of
from repro.devices.health import DeviceState
from repro.errors import SimulatedCrash
from repro.experiments import (
    brownout,
    chaoskill,
    harness,
    phoenix,
    serverscale,
    streamscale,
)
from repro.faults.events import ResilienceLog
from repro.faults.plan import FaultConfig
from repro.metrics.chrome_trace import (
    chrome_trace_json,
    resilience_trace_events,
    vm_engine,
)
from repro.metrics.trace import resilience_events_csv
from repro.teraheap.governor import CircuitState


@lru_cache(maxsize=None)
def smoke_cells(name):
    """One smoke run of a gated experiment, handles kept for export."""
    spec = harness.specs()[name]
    cells, failures = harness.run(spec, smoke=True, keep_handles=True)
    assert failures == []
    return cells


def trace_json(events):
    return json.dumps(events, sort_keys=True, separators=(",", ":"))


def assert_log_matches(log):
    """Both resilience exporters and the summary agree with the reference."""
    ref = legacy_view(log)
    assert resilience_events_csv(log) == reference_resilience_events_csv(ref)
    assert trace_json(resilience_trace_events(log)) == trace_json(
        reference_resilience_trace_events(ref)
    )
    assert log.summary() == ref.summary()
    return resilience_events_csv(log)


def event_names(csv_text):
    return {line.split(",")[1] for line in csv_text.splitlines()[1:]}


class TestSmokeArtifacts:
    def test_phoenix_log_and_trace(self):
        cells = smoke_cells("phoenix")
        vm = phoenix._exported_vm(cells)
        log = vm.resilience.log
        text = assert_log_matches(log)
        assert {"crash", "recovery", "restart", "adoption"} <= event_names(
            text
        )
        assert phoenix.resilience_csv(cells) == (
            reference_resilience_events_csv(legacy_view(log))
        )
        assert phoenix.resilience_trace(cells) == reference_chrome_trace_json(
            vm_engine(vm), label="phoenix", resilience=legacy_view(log)
        )

    def test_streamscale_blocks_and_trace(self):
        cells = smoke_cells("streamscale")
        result = cells[-1].result
        assert streamscale.blocks_csv(cells) == (
            reference_streaming_blocks_csv(result.stream)
        )
        assert streamscale.inflight_trace(cells) == (
            reference_chrome_trace_json(
                vm_engine(result.vm),
                label="streamscale",
                streaming=result.stream,
            )
        )

    def test_serverscale_tenants_and_trace(self):
        cells = smoke_cells("serverscale")
        spec = serverscale.SPEC
        result = cells[-1].result
        assert spec.csv(cells) == reference_server_tenants_csv(
            result.mixed_report
        )
        assert spec.trace(cells) == reference_server_chrome_trace_json(
            result.mixed_box
        )


class TestExperimentLogs:
    def test_brownout_log(self):
        t = brownout.clean_runtime(steps=12)
        win = ((brownout.WINDOW_START * t, 0.5 * t, 0.5),)
        vm = brownout.make_vm(True, win, probe_backoff=0.02 * t)
        workload = brownout.Workload(vm, brownout.WORKLOAD_SEED)
        for step in range(12):
            workload.run_step(step)
        log = vm.resilience.log
        text = assert_log_matches(log)
        assert {"health", "circuit"} <= event_names(text)
        assert chrome_trace_json(
            vm_engine(vm), label="brownout", resilience=log
        ) == reference_chrome_trace_json(
            vm_engine(vm), label="brownout", resilience=legacy_view(log)
        )

    def test_chaoskill_crash_then_recovery(self):
        fault = FaultConfig(
            seed=chaoskill.WORKLOAD_SEED,
            fault_seed=chaoskill.FAULT_SEED,
            crash_point="region_metadata_update",
            crash_after=2,
            write_error_rate=0.05,
        )
        vm = chaoskill.make_vm("commit", fault)
        workload = chaoskill.Workload(vm, chaoskill.WORKLOAD_SEED)
        try:
            for i in range(chaoskill.PHASES):
                workload.run_phase(i)
        except SimulatedCrash:
            pass
        assert vm.resilience.log.crash_count == 1
        fresh = chaoskill.make_vm(
            "commit", FaultConfig(seed=chaoskill.WORKLOAD_SEED)
        )
        fresh.recover_h2(image_of(vm.h2.mapping))
        fresh.resilience.log.absorb(vm.resilience.log)
        text = assert_log_matches(fresh.resilience.log)
        assert {"crash", "recovery"} <= event_names(text)


# ---------------------------------------------------------------------
# Random logs
# ---------------------------------------------------------------------

#: simulated times that tie, or round to the same trace ``ts``
TIMES = st.sampled_from([0.0, 1e-7, 0.25, 0.2500000001, 0.25000004, 1.5])
TEXT = st.text(alphabet='ab ,"\n:|', max_size=4)
COUNT = st.integers(0, 9)
DEVICE_STATES = st.sampled_from([s.value for s in DeviceState])
CIRCUIT_STATES = st.sampled_from([s.value for s in CircuitState])

FIELDS = {
    "fault": st.tuples(TEXT, TEXT, TEXT, TEXT),
    "retry": st.tuples(
        TEXT, COUNT, st.floats(0, 1), st.booleans(),
        st.sampled_from(["", "attempts"]),
    ),
    "health": st.tuples(TEXT, DEVICE_STATES, DEVICE_STATES, TEXT),
    "circuit": st.tuples(CIRCUIT_STATES, CIRCUIT_STATES, TEXT),
    "degradation": st.tuples(TEXT, COUNT),
    "crash": st.tuples(TEXT, TEXT),
    "recovery": st.tuples(COUNT, COUNT, TEXT),
    "restart": st.tuples(COUNT, TEXT),
    "adoption": st.tuples(
        TEXT,
        st.sampled_from(["adopted", "quarantined", "lost", "recomputed"]),
        TEXT,
    ),
}


@st.composite
def events(draw):
    kind = draw(st.sampled_from(sorted(REFERENCE_KINDS)))
    return kind, (draw(TIMES),) + draw(FIELDS[kind])


EVENT_LISTS = st.lists(events(), max_size=12)


@settings(max_examples=150, deadline=None)
@given(
    first=EVENT_LISTS,
    hops=st.lists(st.tuples(EVENT_LISTS, EVENT_LISTS), min_size=1, max_size=2),
)
def test_random_logs_match_reference(first, hops):
    """Each hop records into a successor, absorbs its predecessor, then
    records more; the last log's exports match the reference log's."""

    def record_all(log, ref, recorded):
        for kind, fields in recorded:
            record_event(log, kind, fields)
            getattr(ref, f"record_{kind}")(*fields)

    log, ref = ResilienceLog(), ReferenceResilienceLog()
    record_all(log, ref, first)
    for before, after in hops:
        successor, ref_successor = ResilienceLog(), ReferenceResilienceLog()
        record_all(successor, ref_successor, before)
        successor.absorb(log)
        ref_successor.absorb(ref)
        record_all(successor, ref_successor, after)
        log, ref = successor, ref_successor
    assert resilience_events_csv(log) == reference_resilience_events_csv(ref)
    assert trace_json(resilience_trace_events(log)) == trace_json(
        reference_resilience_trace_events(ref)
    )
    assert log.summary() == ref.summary()
