"""High/low threshold policy for hint-less transfers (Section 3.2).

Delaying movement until ``h2_move`` risks out-of-memory: H1 may fill
first.  TeraHeap monitors live occupancy at the end of each major GC; above
the *high* threshold it moves marked objects without waiting for the hint.
Moving *all* marked objects then would flood the device with objects that
are still being updated, so a *low* threshold bounds the transfer: move
only enough marked bytes to bring H1 occupancy back down to the low mark.
Figure 9(b) shows the low threshold improving SSSP by up to 44%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import HIGH_THRESHOLD


@dataclass
class TransferDecision:
    """What the policy decided for this major GC."""

    #: move groups whose h2_move() hint has arrived
    move_hinted: bool
    #: additionally move unhinted marked objects (pressure response)
    move_unhinted: bool
    #: byte budget for unhinted movement (None = unlimited)
    unhinted_budget: Optional[int]
    reason: str
    #: byte budget for hinted movement (None = unlimited); only the H2
    #: governor ever caps hinted moves, and only with the circuit open
    hinted_budget: Optional[int] = None


class ThresholdPolicy:
    """Decides how much marked data a major GC transfers to H2."""

    def __init__(
        self,
        heap_capacity: int,
        low_threshold: Optional[float] = 0.50,
        use_move_hint: bool = True,
        governor=None,
    ):
        self.heap_capacity = heap_capacity
        #: starts at :data:`~repro.config.HIGH_THRESHOLD`; the adaptive
        #: policy and the multi-tenant arbiter move it at run time
        self.high_threshold = HIGH_THRESHOLD
        self.low_threshold = low_threshold
        self.use_move_hint = use_move_hint
        #: optional :class:`~repro.teraheap.governor.H2Governor` whose
        #: circuit state overrides pressure decisions
        self.governor = governor
        self.pressure_transfers = 0
        #: pressure transfers the governor halted (circuit open)
        self.governor_halts = 0

    def decide(self, live_bytes: int) -> TransferDecision:
        """Pick the transfer plan given the live bytes found by marking."""
        occupancy = live_bytes / self.heap_capacity
        if occupancy <= self.high_threshold:
            # No pressure: honour hints only (or nothing, in the no-hint
            # ablation, where *only* pressure ever moves objects).
            return self._govern(
                TransferDecision(
                    move_hinted=self.use_move_hint,
                    move_unhinted=False,
                    unhinted_budget=None,
                    reason="below high threshold",
                )
            )
        # High pressure: move marked objects without waiting for h2_move().
        self.pressure_transfers += 1
        if self.low_threshold is None:
            return self._govern(
                TransferDecision(
                    move_hinted=True,
                    move_unhinted=True,
                    unhinted_budget=None,
                    reason="high threshold exceeded (no low threshold)",
                )
            )
        target_bytes = int(self.low_threshold * self.heap_capacity)
        budget = max(live_bytes - target_bytes, 0)
        return self._govern(
            TransferDecision(
                move_hinted=True,
                move_unhinted=True,
                unhinted_budget=budget,
                reason=(
                    f"high threshold exceeded; moving down to "
                    f"{self.low_threshold:.0%} occupancy"
                ),
            )
        )

    def _govern(self, decision: TransferDecision) -> TransferDecision:
        """Apply the H2 governor's circuit caps to a raw decision.

        An OPEN circuit halts unhinted (pressure) transfers outright and
        caps hinted moves; a DEGRADED circuit shrinks the unhinted
        budget.  Pressure the governor suppresses is still *pressure* —
        the backpressure path in the VM deals with the memory the
        transfer would have freed.
        """
        if self.governor is None:
            return decision
        allow_unhinted, budget_scale, hinted_budget = (
            self.governor.transfer_caps()
        )
        if hinted_budget is not None:
            decision.hinted_budget = hinted_budget
        if decision.move_unhinted and not allow_unhinted:
            decision.move_unhinted = False
            decision.unhinted_budget = 0
            decision.reason += "; governor halted pressure transfer (circuit open)"
            self.governor_halts += 1
        elif (
            decision.move_unhinted
            and budget_scale < 1.0
            and decision.unhinted_budget is not None
        ):
            decision.unhinted_budget = int(
                decision.unhinted_budget * budget_scale
            )
            decision.reason += (
                f"; governor scaled unhinted budget x{budget_scale:g}"
            )
        return decision


class AdaptiveThresholdPolicy(ThresholdPolicy):
    """Dynamic high/low thresholds — the paper's stated future work (§7.2).

    The static policy must be hand-tuned per workload.  This variant
    adapts between major GCs:

    - repeated pressure transfers mean the high threshold is too lax for
      the allocation rate: lower both thresholds so transfers start
      earlier and move more;
    - sustained pressure-free GCs mean H1 has headroom: relax the
      thresholds back toward their configured values, keeping objects in
      DRAM longer (deferring device traffic for still-mutable data).
    """

    #: multiplicative step applied to the thresholds per adaptation
    STEP = 0.05
    #: consecutive pressure GCs before tightening (a single spike — e.g.
    #: graph loading — should not permanently lower the thresholds)
    PRESSURE_WINDOW = 2
    #: consecutive calm GCs before relaxing
    CALM_WINDOW = 3
    #: floor for the adaptive high threshold
    MIN_HIGH = 0.50

    def __init__(
        self,
        heap_capacity: int,
        low_threshold: Optional[float] = 0.50,
        use_move_hint: bool = True,
        governor=None,
    ):
        super().__init__(
            heap_capacity, low_threshold, use_move_hint, governor=governor
        )
        self.configured_high = HIGH_THRESHOLD
        self.configured_low = low_threshold
        self._calm_streak = 0
        self._pressure_streak = 0
        self.adaptations = 0

    def decide(self, live_bytes: int) -> TransferDecision:
        decision = super().decide(live_bytes)
        if decision.move_unhinted:
            # Pressure fired; tighten only on *sustained* pressure so a
            # one-off spike does not force mutable data out early.
            self._calm_streak = 0
            self._pressure_streak += 1
            if self._pressure_streak >= self.PRESSURE_WINDOW:
                new_high = max(
                    self.MIN_HIGH, self.high_threshold - self.STEP
                )
                if new_high != self.high_threshold:
                    self.high_threshold = new_high
                    self.adaptations += 1
                if self.low_threshold is not None:
                    self.low_threshold = max(
                        0.20, min(self.low_threshold - self.STEP,
                                  self.high_threshold - 0.05)
                    )
        else:
            self._pressure_streak = 0
            self._calm_streak += 1
            if (
                self._calm_streak >= self.CALM_WINDOW
                and self.high_threshold < self.configured_high
            ):
                # Sustained calm: relax back toward the configured values.
                self.high_threshold = min(
                    self.configured_high, self.high_threshold + self.STEP
                )
                if (
                    self.low_threshold is not None
                    and self.configured_low is not None
                ):
                    self.low_threshold = min(
                        self.configured_low, self.low_threshold + self.STEP
                    )
                self._calm_streak = 0
                self.adaptations += 1
        return decision
