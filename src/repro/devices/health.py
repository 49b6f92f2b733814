"""Per-device health tracking: latency/bandwidth EWMAs and SLO states.

A :class:`DeviceHealthMonitor` observes every timed operation a device
completes — fed by the :class:`~repro.faults.injector.FaultInjector`,
which knows both the op's *actual* cost (base + injected surcharges) and
its *nominal* cost (what the clean device model charged) — and keeps
per-device exponentially weighted moving averages of the actual/nominal
cost ratio, the per-op latency and the delivered bandwidth.

From those it classifies each device into three states:

- ``HEALTHY``: the EWMA cost ratio sits near 1 and recent ops met their
  service-level objective (cost within :data:`SLO_MULTIPLIER` of
  nominal);
- ``DEGRADED``: the ratio EWMA drifted above :data:`DEGRADED_RATIO` —
  service is slower than the model says it should be, but usable;
- ``BROWNOUT``: the ratio EWMA crossed :data:`BROWNOUT_RATIO`, or
  :data:`VIOLATION_STREAK` consecutive ops each blew the SLO (including
  injected I/O errors) — the device is effectively unavailable for bulk
  work.

Classification is hysteretic: escalation is immediate, de-escalation
steps down one state at a time and only after :data:`RECOVERY_OPS`
consecutive clean observations, so a device flapping around a threshold
cannot flap its consumers (most importantly the
:class:`~repro.teraheap.governor.H2Governor` circuit breaker, which
subscribes via :meth:`add_listener`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from ..clock import Clock

#: EWMA smoothing factor for the cost ratio / latency / bandwidth
EWMA_ALPHA = 0.3
#: an op whose actual/nominal cost ratio meets this violates its SLO
SLO_MULTIPLIER = 1.75
#: ratio EWMA above which the device is DEGRADED
DEGRADED_RATIO = 1.25
#: ratio EWMA above which the device is in BROWNOUT
BROWNOUT_RATIO = 1.9
#: consecutive SLO violations that force BROWNOUT regardless of EWMA
VIOLATION_STREAK = 4
#: consecutive clean ops required to step *down* one state
RECOVERY_OPS = 8


class DeviceState(enum.Enum):
    """Health classification of one device."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    BROWNOUT = "brownout"


_SEVERITY = {
    DeviceState.HEALTHY: 0,
    DeviceState.DEGRADED: 1,
    DeviceState.BROWNOUT: 2,
}


@dataclass
class HealthTransition:
    """One device-state change, timestamped on the simulated clock.

    Also a resilience-log event (see :mod:`repro.faults.events`).
    """

    event: ClassVar[str] = "health"

    time: float
    device: str
    old: DeviceState
    new: DeviceState
    reason: str = ""

    def line(self) -> str:
        return (
            f"{self.time:.6f}\t{self.device}\t"
            f"{self.old.value}->{self.new.value}\t{self.reason}"
        )

    def cells(self) -> Tuple[Any, Any, Any]:
        return (
            self.device, f"{self.old.value}->{self.new.value}", self.reason
        )

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return f"health:{self.new.value}", {
            "device": self.device, "from": self.old.value,
            "reason": self.reason,
        }


class _DeviceHealth:
    """Mutable per-device tracking state."""

    __slots__ = (
        "ewma_ratio",
        "ewma_latency",
        "ewma_bandwidth",
        "violations",
        "bad_streak",
        "clean_streak",
        "state",
    )

    def __init__(self) -> None:
        self.ewma_ratio = 1.0
        self.ewma_latency = 0.0
        self.ewma_bandwidth = 0.0
        self.violations = 0
        self.bad_streak = 0
        self.clean_streak = 0
        self.state = DeviceState.HEALTHY


class DeviceHealthMonitor:
    """Watchdog over every device the H2 I/O stack touches."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self._devices: Dict[str, _DeviceHealth] = {}
        self.transitions: List[HealthTransition] = []
        #: (owner, callback) pairs; owner None marks unscoped listeners
        self._listeners: List[tuple] = []
        self.observations = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def add_listener(
        self,
        fn: Callable[[HealthTransition], None],
        owner: Optional[object] = None,
    ) -> None:
        """Call ``fn`` on every state transition (e.g. the H2 governor).

        ``owner`` scopes the registration: a monitor shared across
        co-located VMs detaches one tenant's listeners on retirement via
        ``detach_listeners(owner)`` without touching its siblings'.
        """
        self._listeners.append((owner, fn))

    def detach_listeners(self, owner: Optional[object] = None) -> None:
        """Drop listeners (a retired VM must stop driving anything).

        With ``owner=None`` every listener goes — the right call for a
        monitor owned by a single VM.  With an owner, only that owner's
        registrations are dropped: on a *shared* monitor a retiring
        tenant must never strip the governors of tenants still running.
        """
        if owner is None:
            self._listeners.clear()
            return
        self._listeners = [
            (who, fn) for who, fn in self._listeners if who is not owner
        ]

    def _entry(self, device: str) -> _DeviceHealth:
        health = self._devices.get(device)
        if health is None:
            health = self._devices[device] = _DeviceHealth()
        return health

    # ------------------------------------------------------------------
    def observe(
        self,
        device: str,
        op: str,
        nbytes: int,
        actual_s: float,
        nominal_s: float,
    ) -> DeviceState:
        """Feed one completed timed operation; returns the new state.

        ``nominal_s`` is the clean device-model cost of the same op, so
        ``actual_s / nominal_s`` is exactly the injected degradation
        factor (1.0 for a clean op) — no cost-model duplication here.
        """
        self.observations += 1
        health = self._entry(device)
        alpha = EWMA_ALPHA
        ratio = actual_s / nominal_s if nominal_s > 0 else 1.0
        health.ewma_ratio += alpha * (ratio - health.ewma_ratio)
        health.ewma_latency += alpha * (actual_s - health.ewma_latency)
        if actual_s > 0 and nbytes > 0:
            bandwidth = nbytes / actual_s
            if health.ewma_bandwidth == 0.0:
                health.ewma_bandwidth = bandwidth
            else:
                health.ewma_bandwidth += alpha * (
                    bandwidth - health.ewma_bandwidth
                )
        violated = ratio >= SLO_MULTIPLIER
        self._account(
            health,
            device,
            violated,
            f"{op} ratio={ratio:.2f} ewma={health.ewma_ratio:.2f}",
        )
        return health.state

    def observe_error(self, device: str, op: str) -> DeviceState:
        """An op failed outright: the hardest possible SLO violation."""
        self.errors += 1
        health = self._entry(device)
        self._account(health, device, True, f"{op} io_error")
        return health.state

    # ------------------------------------------------------------------
    def _account(
        self,
        health: _DeviceHealth,
        device: str,
        violated: bool,
        reason: str,
    ) -> None:
        if violated:
            health.violations += 1
            health.bad_streak += 1
            health.clean_streak = 0
        else:
            health.bad_streak = 0
            health.clean_streak += 1
        if (
            health.bad_streak >= VIOLATION_STREAK
            or health.ewma_ratio >= BROWNOUT_RATIO
        ):
            target = DeviceState.BROWNOUT
        elif health.ewma_ratio >= DEGRADED_RATIO:
            target = DeviceState.DEGRADED
        else:
            target = DeviceState.HEALTHY
        current = _SEVERITY[health.state]
        wanted = _SEVERITY[target]
        if wanted > current:
            self._transition(health, device, target, reason)
        elif wanted < current and health.clean_streak >= RECOVERY_OPS:
            # Hysteresis: step down one state at a time, and only after a
            # sustained run of clean observations.
            new = DeviceState(
                {1: "healthy", 2: "degraded"}[current]
            )
            self._transition(
                health,
                device,
                new,
                f"recovered after {health.clean_streak} clean ops",
            )
            health.clean_streak = 0

    def _transition(
        self,
        health: _DeviceHealth,
        device: str,
        new: DeviceState,
        reason: str,
    ) -> None:
        old = health.state
        health.state = new
        transition = HealthTransition(self.clock.now, device, old, new, reason)
        self.transitions.append(transition)
        self.clock.record_event(f"device_{new.value}", 0.0)
        for _, fn in self._listeners:
            fn(transition)

    # ------------------------------------------------------------------
    def state_of(self, device: str) -> DeviceState:
        health = self._devices.get(device)
        return health.state if health is not None else DeviceState.HEALTHY

    @property
    def state(self) -> DeviceState:
        """The worst state across all observed devices."""
        worst = DeviceState.HEALTHY
        for health in self._devices.values():
            if _SEVERITY[health.state] > _SEVERITY[worst]:
                worst = health.state
        return worst

    def ewma_ratio(self, device: str) -> float:
        health = self._devices.get(device)
        return health.ewma_ratio if health is not None else 1.0

    def slo_violations(self, device: Optional[str] = None) -> int:
        if device is not None:
            health = self._devices.get(device)
            return health.violations if health is not None else 0
        return sum(h.violations for h in self._devices.values())

    def describe(self) -> str:
        """One-line per-device snapshot for diagnostic heap reports."""
        if not self._devices:
            return "no devices observed"
        return "; ".join(
            f"{name}={h.state.value}"
            f"(ewma_ratio={h.ewma_ratio:.2f}, violations={h.violations})"
            for name, h in sorted(self._devices.items())
        )

    def digest(self) -> str:
        """Canonical transition log, for byte-identity determinism checks."""
        return "\n".join(t.line() for t in self.transitions)
