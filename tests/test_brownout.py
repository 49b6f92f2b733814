"""The brownout chaos-soak experiment and brownout x crash layering."""

from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.errors import SimulatedCrash
from repro.experiments import brownout, chaoskill, harness
from repro.devices.durability import image_of
from repro.faults.plan import FaultConfig, FaultKind


class TestBrownoutExperiment:
    def test_smoke_matrix_meets_acceptance(self):
        # The CI gate's exact shape: governed cells survive with bounded
        # stalls, ungoverned controls die (or stall >= 2x), cell digests
        # byte-identical across reruns.
        cells, failures = harness.run(brownout.SPEC, smoke=True)
        assert failures == []
        assert brownout.clean_runtime(26) > 0
        by_gov = {c.result.governor: c.result for c in cells}
        on, off = by_gov[True], by_gov[False]
        assert not on.oom and on.completed_steps == 26
        assert on.trips >= 1 and on.probes >= 1
        # The circuit re-closed after the window: earned, stepwise.
        assert on.circuit_states[-1] == "closed"
        assert "open" in on.circuit_states
        assert off.oom
        assert off.heap_report  # the OOM carried a diagnostic report
        assert "simulated heap report" in off.heap_report

    def test_governed_cell_digest_is_stable(self):
        t = brownout.clean_runtime(steps=12)
        first = brownout.run_cell(True, 0.3, t, steps=12)
        second = brownout.run_cell(True, 0.3, t, steps=12)
        assert first.digest == second.digest
        assert "[fault-schedule]" in first.digest
        assert "[circuit]" in first.digest

    def test_main_smoke_exits_zero(self):
        assert main(["brownout", "--smoke"]) == 0

    def test_health_and_circuit_events_reach_resilience_log(self):
        t = brownout.clean_runtime(steps=12)
        win = ((brownout.WINDOW_START * t, 0.5 * t, 0.5),)
        vm = brownout.make_vm(True, win, probe_backoff=0.02 * t)
        workload = brownout.Workload(vm, brownout.WORKLOAD_SEED)
        for step in range(12):
            workload.run_step(step)
        log = vm.resilience.log
        assert log.health_transitions >= 1
        assert log.circuit_transitions >= 1
        # The CSV/trace exports see the same timeline.
        from repro.metrics.trace import resilience_events_csv
        from repro.metrics.chrome_trace import resilience_trace_events

        csv = resilience_events_csv(log)
        assert "health" in csv and "circuit" in csv
        names = {e["name"] for e in resilience_trace_events(log)}
        assert any(n.startswith("health:") for n in names)
        assert any(n.startswith("circuit:") for n in names)


def crash_with_brownout(point, crash_after, window, policy="commit"):
    """One chaoskill cell with a brownout window layered over the crash.

    Returns the crashed image's and the recovery's digests ("no-crash"
    for both when the kill never fired) and the windows the plan saw
    open.  An open window denies H2 allocations, so a run may place less
    in H2 and never reach its crash point.
    """
    fault = FaultConfig(
        seed=chaoskill.WORKLOAD_SEED,
        fault_seed=chaoskill.FAULT_SEED,
        crash_point=point,
        crash_after=crash_after,
        brownout_windows=window,
    )
    vm = chaoskill.make_vm(policy, fault)
    injected = vm.resilience.plan.injected
    workload = chaoskill.Workload(vm, chaoskill.WORKLOAD_SEED)
    try:
        for i in range(4):
            workload.run_phase(i)
    except SimulatedCrash:
        image = image_of(vm.h2.mapping)
        digest = image.digest()
        fresh = chaoskill.make_vm(policy)
        report = fresh.recover_h2(image)
        # Post-recovery invariants must hold with the brownout layered in.
        fresh.auditor.audit("recovery", fresh.collector.mark_epoch)
        return digest, report.digest(), injected[FaultKind.BROWNOUT]
    return "no-crash", "no-crash", injected[FaultKind.BROWNOUT]


class TestBrownoutOverCrashPoints:
    @settings(max_examples=8, deadline=None)
    @given(
        point=st.sampled_from([p for p, _ in chaoskill.CRASH_POINTS]),
        start=st.floats(0.0, 2.0),
        duration=st.floats(0.01, 1.0),
    )
    def test_recovery_survives_layered_brownout(self, point, start, duration):
        window = ((start, duration, 0.5),)
        first = crash_with_brownout(point, 2, window)
        second = crash_with_brownout(point, 2, window)
        # Recovery is clean (no exception above) and byte-deterministic.
        assert first == second

    def test_a_crash_fires_inside_a_denying_window_run(self):
        # The window opens early and denies H2 allocations, yet at least
        # one crash point is still reached, so the recovery path above
        # does run under a layered brownout.
        window = ((0.2, 0.3, 0.5),)
        outcomes = [
            crash_with_brownout(point, 2, window)
            for point, _ in chaoskill.CRASH_POINTS
        ]
        assert all(seen == 1 for _, _, seen in outcomes)
        assert any(image != "no-crash" for image, _, _ in outcomes)
