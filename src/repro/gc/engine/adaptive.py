"""Per-cycle feedback controller for GC task granularity.

Static batch sizes are a compromise: chunky batches keep dispatch
overhead low but balance poorly across wide pools, fine batches balance
well but tax every task with claim overhead.  The controller closes the
loop: after each GC cycle it inspects the cycle's engine summary and
multiplies the configured scan/copy/precompact batch sizes by a scale in
``[MIN_BATCH_SCALE, 1.0]`` — halving it when the cycle's imbalance
exceeded the shrink threshold, doubling it back when dispatch overhead
dominated the scheduled work.  The configured sizes are the ceiling; the
controller only ever refines below them.

The controller is pure feedback over deterministic summaries, so runs
stay byte-identical: same workload, same seed, same scale trajectory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ...config import GCEngineConfig
    from .engine import ParallelCycleSummary

#: dispatch-overhead share of scheduled work above which the controller
#: doubles the batch scale back toward 1.0.  Hassanein, "Understanding
#: and improving JVM GC work stealing at the data center scale" (ISMM'16)
#: measures steal-and-dispatch overhead (steal attempts, spinning,
#: termination) at ~10-15% of GC time in production parallel collections
#: before tuning; past ~12% the decomposition is oversized and the
#: controller grows batches back (the old 0.15 sat at the very top of the
#: measured band).
OVERHEAD_GROW_THRESHOLD = 0.12
#: floor of the controller's multiplicative batch scale
MIN_BATCH_SCALE = 0.25


class BatchController:
    """Adapts engine batch sizes from per-cycle scheduling feedback.

    When ``adaptive_batching`` is off the controller is inert: the scale
    is pinned at 1.0 and the properties return the configured sizes, so
    collectors can read batch sizes through it unconditionally.
    """

    def __init__(self, config: "GCEngineConfig"):
        self.config = config
        self.scale = 1.0
        self.shrinks = 0
        self.grows = 0
        self.last_action = "hold"

    @property
    def enabled(self) -> bool:
        return self.config.adaptive_batching

    def _scaled(self, base: int) -> int:
        return max(1, round(base * self.scale))

    @property
    def scan_batch_objects(self) -> int:
        return self._scaled(self.config.scan_batch_objects)

    @property
    def copy_batch_objects(self) -> int:
        return self._scaled(self.config.copy_batch_objects)

    @property
    def precompact_batch_objects(self) -> int:
        return self._scaled(self.config.precompact_batch_objects)

    # ------------------------------------------------------------------
    def observe(self, summary: "ParallelCycleSummary") -> str:
        """Feed one finished cycle's summary; returns the action taken.

        Actions: ``"shrink"`` (imbalance above threshold — halve the
        scale), ``"grow"`` (dispatch overhead dominates — double it back
        toward 1.0), ``"hold"`` (neither, or the controller is off).
        """
        cfg = self.config
        if (
            not self.enabled
            or summary.parallel_seconds <= 0.0
            or summary.tasks == 0
        ):
            self.last_action = "hold"
            return self.last_action
        scheduled = summary.serial_seconds + summary.overhead_seconds
        overhead_share = (
            summary.overhead_seconds / scheduled if scheduled > 0.0 else 0.0
        )
        if (
            summary.workers > 1
            and summary.imbalance > cfg.imbalance_shrink_threshold
            and self.scale > MIN_BATCH_SCALE
        ):
            self.scale = max(MIN_BATCH_SCALE, self.scale / 2.0)
            self.shrinks += 1
            self.last_action = "shrink"
        elif overhead_share > OVERHEAD_GROW_THRESHOLD and self.scale < 1.0:
            self.scale = min(1.0, self.scale * 2.0)
            self.grows += 1
            self.last_action = "grow"
        else:
            self.last_action = "hold"
        return self.last_action
