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
``multiplier`` times its normal cost, and a brownout window surcharges
every op by the inverse of the remaining service fraction.

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
from .events import FaultEvent, ResilienceLog
from .plan import FaultKind, FaultPlan, IOOutcome


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

    def _fail(
        self, op: str, kind: FaultKind, latency: float, requests: int
    ) -> None:
        """Charge a failed attempt and raise the transient I/O error."""
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

    def _surcharge(self, op: str, outcome: IOOutcome, cost: float) -> float:
        """Charge the extra time of a completed op and return it.

        A latency spike or a brownout window costs the op again
        ``multiplier - 1`` times.  Spikes are logged per op.  Brownouts
        are not: the plan records each window once when it opens, and the
        per-op signal belongs to the health monitor, not the fault log.
        """
        extra = cost * (outcome.multiplier - 1.0)
        clock = self.inner.clock
        clock.charge(extra)
        if outcome.kind is FaultKind.LATENCY_SPIKE:
            self.log.record(
                FaultEvent(
                    clock.now,
                    self.inner.name,
                    op,
                    outcome.kind.value,
                    detail=f"x{outcome.multiplier:g}",
                )
            )
        return extra

    def _request(
        self, write: bool, nbytes: int, pattern: AccessPattern, requests: int
    ) -> float:
        """One read or write: draw its outcome, fail it or run it on the
        wrapped device, surcharge it, and report it to the monitor."""
        inner = self.inner
        op = "write" if write else "read"
        outcome = self.plan.io_outcome(
            write=write, device=inner.name, now=inner.clock.now
        )
        kind = outcome.kind if outcome is not None else None
        if kind is FaultKind.READ_ERROR or kind is FaultKind.WRITE_ERROR:
            latency = inner.write_latency if write else inner.read_latency
            self._fail(op, kind, latency, requests)
        cost = (inner.write if write else inner.read)(nbytes, pattern, requests)
        extra = 0.0 if outcome is None else self._surcharge(op, outcome, cost)
        if self.monitor is not None:
            self.monitor.observe(inner.name, op, nbytes, cost + extra, cost)
        return cost + extra

    def read(
        self,
        nbytes: int,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        requests: int = 1,
    ) -> float:
        return self._request(False, nbytes, pattern, requests)

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
        return self._request(True, nbytes, pattern, requests)

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
