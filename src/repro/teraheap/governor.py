"""The H2 governor: a circuit breaker between the collector and H2.

The governor subscribes to the
:class:`~repro.devices.health.DeviceHealthMonitor` and translates device
health into transfer policy:

- ``CLOSED``: normal operation — the threshold policy decides transfers
  exactly as before.
- ``DEGRADED``: the device is slow but serviceable — unhinted (pressure)
  transfer budgets are scaled down so the collector stops shovelling
  bulk data at a struggling device, while hinted moves (the application
  said this data belongs on H2) continue.
- ``OPEN``: the device browned out — unhinted transfers halt entirely
  and hinted moves are capped to a trickle.  While open, the governor
  periodically grants a small *probe* budget with exponential backoff
  between probes; a probe cycle that places its bytes without a denial
  on a healthy device closes the circuit (via DEGRADED, one step at a
  time — re-opening is instant, re-closing is earned).

The :class:`~repro.teraheap.thresholds.ThresholdPolicy` consults
:meth:`transfer_caps` on every decision; the collector reports each
major-GC's placement outcome through :meth:`note_transfer_result`; the
Spark :class:`~repro.frameworks.spark.block_manager.BlockManager` checks
:meth:`blocks_h2_caching` before routing cached partitions at H2; and
the VM checks :meth:`emergency_active` to decide when allocation
failures should trigger backpressure (shed + stall) instead of an
immediate OOM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..clock import Clock
from ..devices.health import DeviceHealthMonitor, DeviceState, HealthTransition
from ..units import KiB

#: unhinted-budget multiplier while the circuit is DEGRADED
DEGRADED_BUDGET_SCALE = 0.5
#: hinted-transfer byte cap while OPEN (outside probe windows)
OPEN_HINTED_CAP = 0
#: hinted-byte budget granted to a half-open probe cycle
PROBE_BYTES = 64 * KiB
#: growth of the delay between failed half-open probes
PROBE_BACKOFF_FACTOR = 2.0
#: clean DEGRADED transfer cycles required to fully close the circuit
CLOSE_STREAK = 2
#: H1 occupancy at which an OPEN circuit arms emergency backpressure
EMERGENCY_WATERMARK = 0.85


class CircuitState(enum.Enum):
    """H2 transfer circuit: CLOSED (normal) → DEGRADED → OPEN (halted)."""

    CLOSED = "closed"
    DEGRADED = "degraded"
    OPEN = "open"


@dataclass
class CircuitTransition:
    """One circuit-state change, timestamped on the simulated clock.

    Also a resilience-log event (see :mod:`repro.faults.events`).
    """

    event: ClassVar[str] = "circuit"

    time: float
    old: CircuitState
    new: CircuitState
    reason: str = ""

    def line(self) -> str:
        return (
            f"{self.time:.6f}\t{self.old.value}->{self.new.value}"
            f"\t{self.reason}"
        )

    def cells(self) -> Tuple[Any, Any, Any]:
        return (
            "h2-governor", f"{self.old.value}->{self.new.value}", self.reason
        )

    def instant(self) -> Tuple[str, Dict[str, Any]]:
        return f"circuit:{self.new.value}", {
            "from": self.old.value, "reason": self.reason
        }


class H2Governor:
    """Circuit breaker driving graceful H2 degradation."""

    def __init__(
        self,
        config,
        monitor: DeviceHealthMonitor,
        clock: Clock,
        log=None,
        owner=None,
    ):
        self.config = config
        self.monitor = monitor
        self.clock = clock
        self.log = log
        self.state = CircuitState.CLOSED
        self.transitions: List[CircuitTransition] = []
        #: times the circuit tripped OPEN
        self.trips = 0
        #: half-open probe budgets granted while OPEN
        self.probes = 0
        self.probe_successes = 0
        self.probe_failures = 0
        self._probe_pending = False
        self._backoff = config.probe_backoff
        self._next_probe_at = float("inf")
        self._close_streak = 0
        # Owner-scoped on shared monitors: retiring `owner` detaches this
        # governor without unhooking sibling tenants' circuits.
        monitor.add_listener(self._on_health, owner=owner)

    # ------------------------------------------------------------------
    def _on_health(self, transition: HealthTransition) -> None:
        new = transition.new
        if new is DeviceState.BROWNOUT:
            self._trip(f"{transition.device} browned out: {transition.reason}")
        elif new is DeviceState.DEGRADED:
            if self.state is CircuitState.CLOSED:
                self._to(
                    CircuitState.DEGRADED,
                    f"{transition.device} degraded: {transition.reason}",
                )
        elif new is DeviceState.HEALTHY:
            # OPEN stays open until a probe cycle proves the path works;
            # DEGRADED trusts the monitor's hysteresis and steps back.
            if self.state is CircuitState.DEGRADED:
                self._close(f"{transition.device} {transition.reason}")

    def _trip(self, reason: str) -> None:
        if self.state is CircuitState.OPEN:
            return
        self.trips += 1
        self._probe_pending = False
        self._close_streak = 0
        self._backoff = self.config.probe_backoff
        self._next_probe_at = self.clock.now + self._backoff
        self._to(CircuitState.OPEN, reason)

    def _close(self, reason: str) -> None:
        self._close_streak = 0
        self._to(CircuitState.CLOSED, reason)

    def _to(self, new: CircuitState, reason: str = "") -> None:
        if new is self.state:
            return
        old = self.state
        self.state = new
        transition = CircuitTransition(self.clock.now, old, new, reason)
        self.transitions.append(transition)
        if self.log is not None:
            self.log.record(transition)
        self.clock.record_event(f"governor_{new.value}", 0.0)

    # ------------------------------------------------------------------
    def transfer_caps(self) -> Tuple[bool, float, Optional[int]]:
        """What the threshold policy may do right now.

        Returns ``(allow_unhinted, unhinted_budget_scale, hinted_budget)``
        where a ``hinted_budget`` of ``None`` means unlimited.
        """
        if self.state is CircuitState.CLOSED:
            return True, 1.0, None
        if self.state is CircuitState.DEGRADED:
            return True, DEGRADED_BUDGET_SCALE, None
        # OPEN: unhinted halted; hinted capped.  Once the backoff expires
        # the next decision becomes a half-open probe with a small budget.
        if self.clock.now >= self._next_probe_at and not self._probe_pending:
            self._probe_pending = True
            self.probes += 1
            return False, 0.0, PROBE_BYTES
        if self._probe_pending:
            return False, 0.0, PROBE_BYTES
        return False, 0.0, OPEN_HINTED_CAP

    def note_transfer_result(self, placed_bytes: int, denied: int) -> None:
        """Major-GC feedback: did the granted budget actually place?"""
        if self.state is CircuitState.OPEN:
            if not self._probe_pending:
                return
            self._probe_pending = False
            if denied == 0 and self.monitor.state is DeviceState.HEALTHY:
                self.probe_successes += 1
                self._close_streak = 1
                self._to(
                    CircuitState.DEGRADED,
                    f"probe placed {placed_bytes}B cleanly",
                )
            else:
                self.probe_failures += 1
                self._backoff = min(
                    self._backoff * PROBE_BACKOFF_FACTOR,
                    self.config.probe_backoff_max,
                )
                self._next_probe_at = self.clock.now + self._backoff
        elif self.state is CircuitState.DEGRADED:
            if denied > 0:
                self._trip(f"{denied} placements denied while degraded")
            elif self.monitor.state is DeviceState.HEALTHY:
                self._close_streak += 1
                if self._close_streak >= CLOSE_STREAK:
                    self._close(
                        f"{self._close_streak} clean transfer cycles"
                    )

    # ------------------------------------------------------------------
    def blocks_h2_caching(self) -> bool:
        """Should the block manager avoid routing new cached data at H2?"""
        return self.state is CircuitState.OPEN

    def emergency_active(self, h1_occupancy: float) -> bool:
        """Backpressure gate: circuit OPEN *and* H1 past the watermark."""
        return (
            self.state is CircuitState.OPEN
            and h1_occupancy >= EMERGENCY_WATERMARK
        )

    def timeline_digest(self) -> str:
        """Canonical transition log, for determinism digests."""
        return "\n".join(t.line() for t in self.transitions)

    def describe(self) -> str:
        return (
            f"circuit={self.state.value} trips={self.trips} "
            f"probes={self.probes} "
            f"(ok={self.probe_successes}, failed={self.probe_failures})"
        )
