"""The fault-injecting device wrapper.

A :class:`FaultInjector` fronts any :class:`~repro.devices.base.Device`
and consults a :class:`~repro.faults.plan.FaultPlan` on every read and
write.  Because the page cache, the memory mapping and the promotion
buffers all talk to "the device" through the same two methods, wrapping
one object makes every layer of the H2 I/O stack participate in fault
injection without per-device code — NVMe, NVM, the mmap fault path and
page-cache writeback all inherit it.

Cost accounting on faults mirrors real hardware: a failed request still
costs the device's access latency (the request travelled to the device
and came back with an error), a latency spike charges the access at
``multiplier`` times its normal cost, a brownout window surcharges every
op by the inverse of the remaining service fraction, and a stall burst
parks each op for a fixed delay.

The injector is also the feed point of the
:class:`~repro.devices.health.DeviceHealthMonitor`: every completed op
reports (actual cost, nominal cost) — the clean device cost returned by
the wrapped device is the nominal, so no cost-model duplication — and
every injected error reports an SLO violation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..devices.base import AccessPattern, Device
from ..errors import DeviceIOError
from .events import FaultEvent, ResilienceLog, StallEvent
from .plan import FaultKind, FaultPlan


class FaultInjector:
    """Proxy device: delegates everything, injects faults on read/write."""

    def __init__(
        self,
        inner: Device,
        plan: FaultPlan,
        log: Optional[ResilienceLog] = None,
        monitor=None,
    ):
        self.inner = inner
        self.plan = plan
        self.log = log if log is not None else ResilienceLog()
        #: optional :class:`~repro.devices.health.DeviceHealthMonitor`
        self.monitor = monitor

    # ------------------------------------------------------------------
    # Device protocol
    # ------------------------------------------------------------------
    @property
    def clock(self):
        return self.inner.clock

    @clock.setter
    def clock(self, value) -> None:
        self.inner.clock = value

    def _fail(self, op: str, latency: float, requests: int) -> None:
        """Charge a failed attempt and raise the transient I/O error."""
        kind = FaultKind.READ_ERROR if op == "read" else FaultKind.WRITE_ERROR
        cost = latency * max(requests, 1)
        self.inner.clock.charge(cost)
        self.log.record(
            FaultEvent(self.inner.clock.now, self.inner.name, op, kind.value)
        )
        if self.monitor is not None:
            self.monitor.observe_error(self.inner.name, op)
        raise DeviceIOError(
            f"injected transient {op} error on {self.inner.name}",
            device=self.inner.name,
            op=op,
            transient=True,
        )

    def _spike(self, op: str, base_cost: float, multiplier: float) -> float:
        """Charge the latency-spike surcharge on top of a completed op."""
        extra = base_cost * (multiplier - 1.0)
        self.inner.clock.charge(extra)
        self.log.record(
            FaultEvent(
                self.inner.clock.now,
                self.inner.name,
                op,
                FaultKind.LATENCY_SPIKE.value,
                detail=f"x{multiplier:g}",
            )
        )
        return extra

    def _brownout(self, base_cost: float, multiplier: float) -> float:
        """Charge the degraded-service surcharge of a brownout window.

        Not logged per-op (the plan records each window once when it
        opens); a window covers many ops and the per-op signal belongs
        to the health monitor, not the fault log.
        """
        extra = base_cost * (multiplier - 1.0)
        self.inner.clock.charge(extra)
        return extra

    def _stall(self, op: str) -> float:
        """Park this op for the configured stall-burst delay."""
        extra = self.plan.config.stall_seconds
        self.inner.clock.charge(extra)
        self.log.record(
            StallEvent(self.inner.clock.now, self.inner.name, op, extra)
        )
        return extra

    def _observe(
        self, op: str, nbytes: int, actual: float, nominal: float
    ) -> None:
        if self.monitor is not None:
            self.monitor.observe(self.inner.name, op, nbytes, actual, nominal)

    def read(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        requests: int = 1,
    ) -> float:
        outcome = self.plan.io_outcome(
            write=False, device=self.inner.name, now=self.inner.clock.now
        )
        if outcome is not None and outcome.kind is FaultKind.READ_ERROR:
            self._fail("read", self.inner.read_latency, requests)
        cost = self.inner.read(nbytes, pattern, requests)
        extra = 0.0
        if outcome is not None:
            if outcome.kind is FaultKind.LATENCY_SPIKE:
                extra = self._spike("read", cost, outcome.multiplier)
            elif outcome.kind is FaultKind.BROWNOUT:
                extra = self._brownout(cost, outcome.multiplier)
            elif outcome.kind is FaultKind.STALL:
                extra = self._stall("read")
        self._observe("read", nbytes, cost + extra, cost)
        return cost + extra

    def read_many(
        self,
        sizes: Sequence[int],
        pattern: AccessPattern,
        requests: Sequence[int],
    ) -> List[float]:
        """One :meth:`read` per entry, so every read draws its own fault
        outcome (without this, ``__getattr__`` would hand the batch to
        the raw device and no fault would ever fire)."""
        return [self.read(n, pattern, r) for n, r in zip(sizes, requests)]

    def write(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        requests: int = 1,
    ) -> float:
        outcome = self.plan.io_outcome(
            write=True, device=self.inner.name, now=self.inner.clock.now
        )
        if outcome is not None and outcome.kind is FaultKind.WRITE_ERROR:
            self._fail("write", self.inner.write_latency, requests)
        cost = self.inner.write(nbytes, pattern, requests)
        extra = 0.0
        if outcome is not None:
            if outcome.kind is FaultKind.LATENCY_SPIKE:
                extra = self._spike("write", cost, outcome.multiplier)
            elif outcome.kind is FaultKind.BROWNOUT:
                extra = self._brownout(cost, outcome.multiplier)
            elif outcome.kind is FaultKind.STALL:
                extra = self._stall("write")
        self._observe("write", nbytes, cost + extra, cost)
        return cost + extra

    def read_modify_write(self, nbytes: int) -> float:
        return self.read(nbytes, AccessPattern.RANDOM) + self.write(
            nbytes, AccessPattern.RANDOM
        )

    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Everything else (name, capacity, traffic, page_size, ...) is the
        # wrapped device's business.
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector over {self.inner.name}>"
