"""One run's fault/audit defaults and the resilience summary they feed."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .events import ResilienceLog
from .plan import FaultConfig, FaultPlan
from .policy import ResiliencePolicy


class RunSession:
    """The run-scoped ``--faults``/``--audit`` values and their counters.

    The CLI builds one and hands it to every VM an experiment builds
    (``JavaVM(..., session=)``).  A VM whose own
    :class:`~repro.config.VMConfig` leaves ``faults`` or ``audit`` unset
    takes the session's value, and the session counts that VM's policy
    and auditor in :meth:`summary`.  Only counter holders are kept — a
    policy's fault plan and event log, an auditor's tally — never a VM,
    so a finished cell is freed as soon as its caller drops it.
    """

    def __init__(
        self, faults: Optional[FaultConfig] = None, audit: Optional[str] = None
    ):
        self.faults = faults
        self.audit = audit
        self._policies: List[Tuple[FaultPlan, ResilienceLog]] = []
        self._tallies: List[object] = []

    def tracks(self, policy: ResiliencePolicy) -> bool:
        """Whether ``policy`` is counted in the summary."""
        return any(plan is policy.plan for plan, _ in self._policies)

    def track_policy(self, policy: ResiliencePolicy) -> None:
        """Count ``policy`` in the summary (once, however often tracked)."""
        if not self.tracks(policy):
            self._policies.append((policy.plan, policy.log))

    def track_auditor(self, auditor) -> None:
        """Count ``auditor``'s tally in the summary (once)."""
        if all(tally is not auditor.tally for tally in self._tallies):
            self._tallies.append(auditor.tally)

    def summary(self) -> Dict[str, float]:
        """Counters summed over every policy and auditor tracked so far."""
        totals = dict.fromkeys(ResilienceLog().summary(), 0.0)
        totals.update(
            faults_injected=0.0, audits_run=0.0, invariant_violations=0.0
        )
        for plan, log in self._policies:
            totals["faults_injected"] += plan.total_injected
            for key, value in log.summary().items():
                totals[key] += value
        for tally in self._tallies:
            totals["audits_run"] += tally.audits_run
            totals["invariant_violations"] += tally.violations_found
        return totals
