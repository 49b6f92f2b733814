"""Retry and degradation policies around the H2 I/O path.

:class:`RetryPolicy` wraps an operation in a bounded exponential-backoff
retry loop; backoff stalls are charged to the simulated clock (in the
caller's current bucket, so a retry during major GC shows up as major-GC
time, exactly where a real safepoint stall would land).  The loop stops
after ``max_attempts`` tries, so a plan that keeps an op failing cannot
make it spin: the op counts as exhausted and the failure budget takes
over.

:class:`ResiliencePolicy` owns the whole resilience state of one VM: the
fault plan, the injector-shared event log, the retry policy, and the
degradation switch.  After ``failure_budget`` failed operations (retry
exhaustions and device-full denials), H2 transfers are disabled — the
collector stops selecting movers and objects fall back to the in-H1
serialization path, the paper's baseline.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from ..clock import Clock
from ..errors import DeviceIOError, SegmentationFault
from .events import DegradationEvent, ResilienceLog, RetryEvent
from .injector import FaultInjector
from .plan import FaultConfig, FaultPlan

T = TypeVar("T")

#: first backoff delay in simulated seconds
BACKOFF_BASE = 100e-6
#: growth of the backoff delay per retry
BACKOFF_FACTOR = 2.0


def is_transient(exc: BaseException) -> bool:
    """Retryable faults: transient device errors and simulated SIGBUS."""
    if isinstance(exc, DeviceIOError):
        return exc.transient
    if isinstance(exc, SegmentationFault):
        return exc.sigbus
    return False


class RetryPolicy:
    """Bounded exponential backoff with clock-charged delays."""

    def __init__(self, config: FaultConfig, clock: Clock, log: ResilienceLog):
        self.config = config
        self.clock = clock
        self.log = log

    def call(self, op: str, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying transient faults up to ``max_attempts``.

        Raises the last fault once attempts are exhausted; the caller
        (:class:`ResiliencePolicy`) decides what exhaustion means.
        """
        cfg = self.config
        failures = 0
        delay = BACKOFF_BASE
        spent = 0.0
        while True:
            try:
                result = fn()
            except (DeviceIOError, SegmentationFault) as exc:
                if not is_transient(exc):
                    raise
                failures += 1
                if failures >= cfg.max_attempts:
                    self.log.record(
                        RetryEvent(
                            self.clock.now,
                            op,
                            failures,
                            spent,
                            success=False,
                            reason="attempts",
                        )
                    )
                    raise
                # Back off before the next attempt; the stall is simulated
                # time in the caller's current bucket.
                self.clock.charge(delay)
                spent += delay
                delay *= BACKOFF_FACTOR
                continue
            if failures:
                self.log.record(
                    RetryEvent(
                        self.clock.now, op, failures, spent, success=True
                    )
                )
            return result


class ResiliencePolicy:
    """One VM's fault plan + retry loop + graceful-degradation switch."""

    def __init__(self, config: FaultConfig, clock: Clock):
        self.config = config
        self.clock = clock
        self.plan = FaultPlan(config)
        self.log = ResilienceLog()
        self.retry = RetryPolicy(config, clock, self.log)
        #: failed operations so far (retry exhaustions + device-full)
        self.failures = 0
        self.degraded = False
        #: optional :class:`~repro.devices.health.DeviceHealthMonitor`
        #: that every device wrapped afterwards feeds
        self.monitor = None

    # ------------------------------------------------------------------
    def wrap_device(self, device) -> FaultInjector:
        """Front ``device`` with this policy's fault plan, event log and
        health monitor."""
        return FaultInjector(device, self.plan, self.log, monitor=self.monitor)

    # ------------------------------------------------------------------
    def run(self, op: str, fn: Callable[[], T]) -> T:
        """Execute ``fn`` with retries; degrade instead of aborting.

        When retries are exhausted the failure is charged against the
        budget and the operation re-runs once with injection suspended —
        modelling the slow recovery path (kernel-level retry, device
        reset) that eventually completes so a single hot fault cannot
        abort a whole run.
        """
        try:
            return self.retry.call(op, fn)
        except (DeviceIOError, SegmentationFault) as exc:
            if not is_transient(exc):
                raise
            self.note_failure(op, exc)
            with self.plan.suspend():
                return fn()

    def note_failure(self, op: str, exc: BaseException) -> None:
        """Count one failed operation; trip degradation past the budget."""
        self.failures += 1
        if not self.degraded and self.failures >= self.config.failure_budget:
            self.degraded = True
            reason = f"{op}: {exc}"
            self.log.record(
                DegradationEvent(self.clock.now, reason, self.failures)
            )
            self.clock.record_event("h2_degraded", 0.0)

    # ------------------------------------------------------------------
    def degradation_context(self) -> str:
        """The fallback description OOM errors must report when degraded."""
        if not self.degraded:
            return ""
        return (
            f"H2 degraded after {self.failures} I/O failures; transfers "
            "disabled, cached data held in H1 via the serialization "
            "fallback path"
        )
