"""Retry and degradation policies around the H2 I/O path.

:class:`RetryPolicy` wraps an operation in a bounded exponential-backoff
retry loop; backoff stalls are charged to the simulated clock (in the
caller's current bucket, so a retry during major GC shows up as major-GC
time, exactly where a real safepoint stall would land).  Delays carry
seeded jitter (so a hostile fault plan cannot lock retry convoys into
step) and the loop additionally respects a total-elapsed-backoff
deadline: a plan that keeps an op failing cannot make it spin
arbitrarily long — the deadline declares the op exhausted and the
failure budget takes over.

:class:`ResiliencePolicy` owns the whole resilience state of one VM: the
fault plan, the injector-shared event log, the retry policy, and the
degradation switch.  After ``failure_budget`` failed operations (retry
exhaustions and device-full denials), H2 transfers are disabled — the
collector stops selecting movers and objects fall back to the in-H1
serialization path, the paper's baseline.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, TypeVar

from ..clock import Clock
from ..errors import DeviceIOError, SegmentationFault
from .events import ResilienceLog
from .injector import FaultInjector
from .plan import FaultConfig, FaultPlan

T = TypeVar("T")


def is_transient(exc: BaseException) -> bool:
    """Retryable faults: transient device errors and simulated SIGBUS."""
    if isinstance(exc, DeviceIOError):
        return exc.transient
    if isinstance(exc, SegmentationFault):
        return exc.sigbus
    return False


class RetryPolicy:
    """Bounded, jittered exponential backoff with clock-charged delays."""

    def __init__(self, config: FaultConfig, clock: Clock, log: ResilienceLog):
        self.config = config
        self.clock = clock
        self.log = log
        # Jitter draws from its own stream (never the fault plan's), so
        # enabling jitter cannot perturb the fault schedule — the same
        # seed still produces the byte-identical schedule digest.
        seed = config.seed if config.fault_seed is None else config.fault_seed
        self._jitter_rng = Random(seed ^ 0x0BAC_C0FF)

    def _jittered(self, delay: float) -> float:
        jitter = self.config.backoff_jitter
        if jitter <= 0.0:
            return delay
        return delay * (1.0 + jitter * (2.0 * self._jitter_rng.random() - 1.0))

    def call(self, op: str, fn: Callable[[], T]) -> T:
        """Run ``fn``, retrying transient faults up to ``max_attempts``.

        Raises the last fault once attempts (or the total-backoff
        deadline) are exhausted; the caller (:class:`ResiliencePolicy`)
        decides what exhaustion means.
        """
        cfg = self.config
        failures = 0
        delay = cfg.backoff_base
        spent = 0.0
        while True:
            try:
                result = fn()
            except (DeviceIOError, SegmentationFault) as exc:
                if not is_transient(exc):
                    raise
                failures += 1
                if failures >= cfg.max_attempts:
                    self.log.record_retry(
                        self.clock.now,
                        op,
                        failures,
                        spent,
                        success=False,
                        reason="attempts",
                    )
                    raise
                step = self._jittered(delay)
                if (
                    cfg.retry_deadline is not None
                    and spent + step > cfg.retry_deadline
                ):
                    # Spending the next delay would blow the total-elapsed
                    # cap: give up now instead of spinning — the op counts
                    # as exhausted-by-deadline against the failure budget.
                    self.log.record_retry(
                        self.clock.now,
                        op,
                        failures,
                        spent,
                        success=False,
                        reason="deadline",
                    )
                    raise
                # Back off before the next attempt; the stall is simulated
                # time in the caller's current bucket.
                self.clock.charge(step)
                spent += step
                delay *= cfg.backoff_factor
                continue
            if failures:
                self.log.record_retry(
                    self.clock.now, op, failures, spent, success=True
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
        #: that every wrapped device feeds
        self.monitor = None
        self._injectors: List[FaultInjector] = []

    # ------------------------------------------------------------------
    def wrap_device(self, device) -> FaultInjector:
        """Front ``device`` with this policy's fault plan and event log."""
        injector = FaultInjector(
            device, self.plan, self.log, monitor=self.monitor
        )
        self._injectors.append(injector)
        return injector

    def attach_monitor(self, monitor) -> None:
        """Feed a health monitor from every (current and future) injector."""
        self.monitor = monitor
        for injector in self._injectors:
            injector.monitor = monitor

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
        if (
            self.config.degrade
            and not self.degraded
            and self.failures >= self.config.failure_budget
        ):
            self.degraded = True
            reason = f"{op}: {exc}"
            self.log.record_degradation(self.clock.now, reason, self.failures)
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
